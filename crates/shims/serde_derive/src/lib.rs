//! Derive macros for the vendored `serde` shim.
//!
//! Parses the deriving item with the bare `proc_macro` API (no `syn`/
//! `quote` available offline) and emits `Serialize`/`Deserialize` impls
//! against the shim's JSON data model. The one supported shape is a
//! non-generic named-field struct without `#[serde(...)]` attributes;
//! anything else is a compile error. Field types never need to be parsed:
//! generated code relies on type inference through `serde::field`.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// A named-field struct: its name and its fields' names, in order.
struct Item {
    name: String,
    fields: Vec<String>,
}

/// Derives `serde::Serialize`.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item).parse().expect("generated impl parses")
}

/// Derives `serde::Deserialize`.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated impl parses")
}

// ---- parsing ----

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs_and_vis(&tokens, &mut i);
    match &tokens[i] {
        TokenTree::Ident(id) if id.to_string() == "struct" => {}
        other => panic!("serde shim derive supports only structs, found `{other}`"),
    }
    i += 1;
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("expected item name, found {other}"),
    };
    i += 1;
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde shim derive does not support generic types (`{name}`)");
    }
    let body = loop {
        match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => break g.stream(),
            Some(_) => i += 1,
            None => panic!("`{name}`: no braced body (tuple structs unsupported)"),
        }
    };
    Item {
        name,
        fields: parse_named_fields(body),
    }
}

fn skip_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) {
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 2; // `#` + bracketed attribute group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    *i += 1; // `pub(crate)` and friends
                }
            }
            _ => return,
        }
    }
}

/// Parses `name: Type, ...` skipping the types (angle-bracket aware).
fn parse_named_fields(body: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("expected field name, found {other}"),
        };
        fields.push(name);
        i += 1;
        // Skip `: Type` up to the next top-level comma.
        let mut angle = 0i32;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
    }
    fields
}

// ---- code generation ----

fn gen_serialize(Item { name, fields }: &Item) -> String {
    let pairs: Vec<String> = fields
        .iter()
        .map(|f| format!("(\"{f}\".to_string(), ::serde::Serialize::to_json(&self.{f}))"))
        .collect();
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn to_json(&self) -> ::serde::JsonValue {{\n\
         ::serde::JsonValue::Obj(vec![{}])\n}}\n}}",
        pairs.join(", ")
    )
}

fn gen_deserialize(Item { name, fields }: &Item) -> String {
    let inits: Vec<String> = fields
        .iter()
        .map(|f| format!("{f}: ::serde::field(v, \"{f}\")?"))
        .collect();
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn from_json(v: &::serde::JsonValue) -> ::std::result::Result<Self, ::serde::DeError> {{\n\
         Ok({name} {{ {} }})\n}}\n}}",
        inits.join(", ")
    )
}
