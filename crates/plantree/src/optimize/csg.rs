//! Enumeration of connected subgraphs and their connected complements —
//! the `EnumerateCsg` / `EnumerateCmp` pair of DPccp (Moerkotte & Neumann,
//! "Analysis of Two Existing and One New Dynamic Programming Algorithm for
//! the Generation of Optimal Bushy Join Trees without Cross Products",
//! VLDB 2006). [`optimize_bushy`](super::optimize_bushy) drives its DP
//! from it, so phase 1 costs time and memory proportional to what the join
//! graph actually contains instead of to `2^n` bitmasks.
//!
//! Callbacks return `Result<(), E>` so a caller can stop the sweep (the
//! pair budget does).

use super::QueryGraph;

/// Relations `0..=i` as a mask (`B_i` in the paper).
fn up_to(i: u32) -> u32 {
    u32::MAX >> (31 - i)
}

/// Calls `emit` once for every connected subset of `graph`'s relations,
/// every subset before any of its supersets — a valid DP order.
pub(super) fn for_each_csg<E>(
    graph: &QueryGraph,
    emit: &mut impl FnMut(u32) -> Result<(), E>,
) -> Result<(), E> {
    for i in (0..graph.len() as u32).rev() {
        emit(1 << i)?;
        grow(graph, 1 << i, up_to(i), emit)?;
    }
    Ok(())
}

/// Calls `emit` for every connected subset that is disjoint from the
/// connected subset `s1`, joined to it by an edge, and made only of
/// relations above `s1`'s lowest. Called on every subset
/// [`for_each_csg`] emits, this yields each unordered csg-cmp pair exactly
/// once, and only after every pair that builds either half.
pub(super) fn for_each_cmp<E>(
    graph: &QueryGraph,
    s1: u32,
    emit: &mut impl FnMut(u32) -> Result<(), E>,
) -> Result<(), E> {
    let exclude = up_to(s1.trailing_zeros()) | s1;
    let frontier = graph.neighbours(s1) & !exclude;
    let mut rest = frontier;
    while rest != 0 {
        let i = 31 - rest.leading_zeros();
        rest &= !(1 << i);
        emit(1 << i)?;
        grow(graph, 1 << i, exclude | (up_to(i) & frontier), emit)?;
    }
    Ok(())
}

/// Emits every connected superset of `s` that grows through `s`'s
/// neighbourhood outside `exclude`: first `s` plus each non-empty subset
/// of that neighbourhood, then, recursively, what each of those grows
/// into with the whole neighbourhood excluded.
fn grow<E>(
    graph: &QueryGraph,
    s: u32,
    exclude: u32,
    emit: &mut impl FnMut(u32) -> Result<(), E>,
) -> Result<(), E> {
    let frontier = graph.neighbours(s) & !exclude;
    if frontier == 0 {
        return Ok(());
    }
    // `(sub - frontier) & frontier` steps through the non-empty subsets of
    // `frontier` in ascending order and wraps to 0 after the last.
    let next = |sub: u32| sub.wrapping_sub(frontier) & frontier;
    let mut sub = next(0);
    while sub != 0 {
        emit(s | sub)?;
        sub = next(sub);
    }
    sub = next(0);
    while sub != 0 {
        grow(graph, s | sub, exclude | frontier, emit)?;
        sub = next(sub);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    fn csgs(graph: &QueryGraph) -> Vec<u32> {
        let mut out = Vec::new();
        for_each_csg::<Infallible>(graph, &mut |s| {
            out.push(s);
            Ok(())
        })
        .unwrap();
        out
    }

    fn pairs(graph: &QueryGraph) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for s1 in csgs(graph) {
            for_each_cmp::<Infallible>(graph, s1, &mut |s2| {
                out.push((s1, s2));
                Ok(())
            })
            .unwrap();
        }
        out
    }

    #[test]
    fn chain_counts_match_the_closed_forms() {
        for n in 2..=16usize {
            let g = QueryGraph::regular_chain(n, 10).unwrap();
            assert_eq!(csgs(&g).len(), n * (n + 1) / 2, "csg, n={n}");
            assert_eq!(pairs(&g).len(), (n * n * n - n) / 6, "ccp, n={n}");
        }
    }

    #[test]
    fn clique_counts_match_the_closed_forms() {
        for n in 2..=8u32 {
            let mut g = QueryGraph::new();
            for i in 0..n {
                g.add_relation(format!("R{i}"), 10).unwrap();
            }
            for a in 0..n as usize {
                for b in a + 1..n as usize {
                    g.add_edge(a, b, 0.5).unwrap();
                }
            }
            assert_eq!(csgs(&g).len(), (1usize << n) - 1);
            // (3^n - 2^(n+1) + 1) / 2
            assert_eq!(2 * pairs(&g).len(), 3usize.pow(n) + 1 - (1 << (n + 1)));
        }
    }

    #[test]
    fn subsets_come_before_supersets_and_pairs_are_unique() {
        // A cycle with a chord and a pendant relation.
        let mut g = QueryGraph::new();
        for i in 0..7 {
            g.add_relation(format!("R{i}"), 10).unwrap();
        }
        for (a, b) in [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 0),
            (1, 4),
            (3, 5),
            (5, 6),
        ] {
            g.add_edge(a, b, 0.5).unwrap();
        }
        let order = csgs(&g);
        for (i, &s) in order.iter().enumerate() {
            assert!(order[..i].iter().all(|&earlier| earlier & s != s), "{s:b}");
        }
        let mut seen = std::collections::HashSet::new();
        for (s1, s2) in pairs(&g) {
            assert_eq!(s1 & s2, 0);
            assert!(g.connects(s1, s2));
            assert!(order.contains(&s2));
            assert!(seen.insert((s1.min(s2), s1.max(s2))), "{s1:b} {s2:b}");
        }
    }
}
