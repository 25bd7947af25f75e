//! A square bit matrix: the relations between a plan's operations (or its
//! process groups) that validation and process fusion reason about.

/// An `n`×`n` relation, one bit row per element.
#[derive(Clone)]
pub(crate) struct BitMatrix {
    n: usize,
    words: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    /// The empty relation over `n` elements.
    pub(crate) fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        BitMatrix {
            n,
            words,
            bits: vec![0; n * words],
        }
    }

    /// Relates `i` to `j`.
    pub(crate) fn set(&mut self, i: usize, j: usize) {
        self.bits[i * self.words + j / 64] |= 1 << (j % 64);
    }

    /// True if `i` is related to `j`.
    pub(crate) fn get(&self, i: usize, j: usize) -> bool {
        self.bits[i * self.words + j / 64] & (1 << (j % 64)) != 0
    }

    /// Relates `i` to everything `j` is related to.
    pub(crate) fn or_row(&mut self, i: usize, j: usize) {
        for w in 0..self.words {
            self.bits[i * self.words + w] |= self.bits[j * self.words + w];
        }
    }

    /// Relates `i` to everything `j` is related to in `other`, a relation
    /// over the same elements.
    pub(crate) fn or_row_of(&mut self, i: usize, other: &BitMatrix, j: usize) {
        for w in 0..self.words {
            self.bits[i * self.words + w] |= other.bits[j * other.words + w];
        }
    }

    /// Transitive closure, in place.
    pub(crate) fn close(&mut self) {
        for k in 0..self.n {
            for i in 0..self.n {
                if self.get(i, k) {
                    self.or_row(i, k);
                }
            }
        }
    }

    /// After [`close`](Self::close): an element related to itself, i.e. on
    /// a cycle.
    pub(crate) fn on_cycle(&self) -> Option<usize> {
        (0..self.n).find(|&i| self.get(i, i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_follows_chains_and_finds_cycles_past_one_word() {
        let mut m = BitMatrix::new(70);
        m.set(69, 3);
        m.set(3, 65);
        m.close();
        assert!(m.get(69, 65) && !m.get(65, 69));
        assert_eq!(m.on_cycle(), None);
        m.set(65, 69);
        m.close();
        assert_eq!(m.on_cycle(), Some(3));
        let mut other = BitMatrix::new(70);
        other.or_row_of(0, &m, 65);
        assert!(other.get(0, 69) && other.get(0, 3) && !other.get(1, 69));
    }
}
