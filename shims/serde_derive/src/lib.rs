//! `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the vendored
//! serde stand-in.
//!
//! Implemented without `syn`/`quote` (offline build): the macro hand-parses
//! the token stream just far enough to recover the item's shape. Supported
//! shapes — the only ones this workspace derives on:
//!
//! * structs with named fields  -> JSON object, fields in declaration order;
//! * tuple structs with one field (newtypes) -> the inner value, transparent;
//! * tuple structs with several fields -> JSON array;
//! * enums whose variants are all unit variants -> the variant name as a
//!   JSON string (discriminants like `North = 0` are accepted and ignored).
//!
//! Anything else (generics, payload-carrying variants) produces a
//! `compile_error!` pointing here; hand-write the impl instead.
//!
//! `Deserialize` gets both read paths: `from_value` over a tree and
//! `from_parser`, which pulls the same shape straight from JSON text and
//! takes the tree read only for a value of the wrong shape (so its errors,
//! and its successes, are the tree read's).

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
enum Shape {
    NamedStruct { name: String, fields: Vec<String> },
    TupleStruct { name: String, arity: usize },
    UnitEnum { name: String, variants: Vec<String> },
}

fn parse_shape(input: TokenStream) -> Result<Shape, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    // Skip outer attributes (`#[...]`) and doc comments.
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                i += 1; // the attribute group follows
                if matches!(&tokens.get(i), Some(TokenTree::Group(_))) {
                    i += 1;
                }
            }
            _ => break,
        }
    }
    // Skip visibility: `pub`, optionally followed by `(crate)` etc.
    if matches!(&tokens.get(i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        i += 1;
        if matches!(&tokens.get(i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            i += 1;
        }
    }

    let kind = match &tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected `struct` or `enum`, got {other:?}")),
    };
    i += 1;
    let name = match &tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected type name, got {other:?}")),
    };
    i += 1;

    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "cannot derive for generic type `{name}`; write the impl by hand"
        ));
    }

    let body = match &tokens.get(i) {
        Some(TokenTree::Group(g)) => g,
        other => return Err(format!("expected item body for `{name}`, got {other:?}")),
    };

    match (kind.as_str(), body.delimiter()) {
        ("struct", Delimiter::Brace) => {
            let fields = parse_named_fields(body.stream())?;
            Ok(Shape::NamedStruct { name, fields })
        }
        ("struct", Delimiter::Parenthesis) => {
            let arity = count_top_level_fields(body.stream());
            Ok(Shape::TupleStruct { name, arity })
        }
        ("enum", Delimiter::Brace) => {
            let variants = parse_unit_variants(&name, body.stream())?;
            Ok(Shape::UnitEnum { name, variants })
        }
        _ => Err(format!("unsupported item shape for `{name}`")),
    }
}

/// Split a brace-group's tokens on top-level commas.
fn split_on_commas(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut groups = Vec::new();
    let mut current = Vec::new();
    for tt in stream {
        match &tt {
            TokenTree::Punct(p) if p.as_char() == ',' => {
                if !current.is_empty() {
                    groups.push(std::mem::take(&mut current));
                }
            }
            _ => current.push(tt),
        }
    }
    if !current.is_empty() {
        groups.push(current);
    }
    groups
}

fn skip_attrs_and_vis(tokens: &[TokenTree]) -> usize {
    let mut i = 0;
    loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                i += 1;
                if matches!(tokens.get(i), Some(TokenTree::Group(_))) {
                    i += 1;
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if matches!(tokens.get(i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    i += 1;
                }
            }
            _ => return i,
        }
    }
}

fn parse_named_fields(stream: TokenStream) -> Result<Vec<String>, String> {
    let mut fields = Vec::new();
    for chunk in split_on_commas(stream) {
        let i = skip_attrs_and_vis(&chunk);
        match chunk.get(i) {
            Some(TokenTree::Ident(id)) => fields.push(id.to_string()),
            other => return Err(format!("expected field name, got {other:?}")),
        }
    }
    Ok(fields)
}

fn count_top_level_fields(stream: TokenStream) -> usize {
    split_on_commas(stream).len()
}

fn parse_unit_variants(enum_name: &str, stream: TokenStream) -> Result<Vec<String>, String> {
    let mut variants = Vec::new();
    for chunk in split_on_commas(stream) {
        let i = skip_attrs_and_vis(&chunk);
        let name = match chunk.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected variant name, got {other:?}")),
        };
        // Accept `Name`, `Name = <discriminant>`; reject `Name(..)` / `Name{..}`.
        match chunk.get(i + 1) {
            None => {}
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {}
            Some(TokenTree::Group(_)) => {
                return Err(format!(
                    "variant `{enum_name}::{name}` carries data; \
                     hand-write Serialize/Deserialize for this enum"
                ));
            }
            other => {
                return Err(format!(
                    "unexpected token after variant `{name}`: {other:?}"
                ))
            }
        }
        variants.push(name);
    }
    Ok(variants)
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let shape = match parse_shape(input) {
        Ok(s) => s,
        Err(e) => return compile_error(&e),
    };
    let code = match shape {
        Shape::NamedStruct { name, fields } => {
            let pairs: Vec<String> = fields
                .iter()
                .map(|f| format!("({f:?}.to_string(), ::serde::Serialize::to_value(&self.{f}))"))
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         ::serde::Value::Object(vec![{}])\n\
                     }}\n\
                 }}",
                pairs.join(", ")
            )
        }
        Shape::TupleStruct { name, arity: 1 } => format!(
            "impl ::serde::Serialize for {name} {{\n\
                 fn to_value(&self) -> ::serde::Value {{\n\
                     ::serde::Serialize::to_value(&self.0)\n\
                 }}\n\
             }}"
        ),
        Shape::TupleStruct { name, arity } => {
            let elems: Vec<String> = (0..arity)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         ::serde::Value::Array(vec![{}])\n\
                     }}\n\
                 }}",
                elems.join(", ")
            )
        }
        Shape::UnitEnum { name, variants } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| format!("{name}::{v} => ::serde::Value::Str({v:?}.to_string())"))
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         match self {{ {} }}\n\
                     }}\n\
                 }}",
                arms.join(", ")
            )
        }
    };
    code.parse().unwrap()
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let shape = match parse_shape(input) {
        Ok(s) => s,
        Err(e) => return compile_error(&e),
    };
    let (name, from_value, from_parser) = match shape {
        Shape::NamedStruct { name, fields } => {
            let (from_value, from_parser) = named_struct(&name, &fields);
            (name, from_value, from_parser)
        }
        Shape::TupleStruct { name, arity: 1 } => (
            name.clone(),
            format!("Ok({name}(::serde::Deserialize::from_value(v)?))"),
            format!("Ok({name}(::serde::Deserialize::from_parser(p)?))"),
        ),
        Shape::TupleStruct { name, arity } => {
            let elems: Vec<String> = (0..arity)
                .map(|i| {
                    format!(
                        "::serde::Deserialize::from_value(xs.get({i}).ok_or_else(\
                             || ::serde::Error::msg(\"{name}: tuple too short\"))?)?"
                    )
                })
                .collect();
            let from_value = format!(
                "let xs = v.as_array().ok_or_else(\
                     || ::serde::Error::msg(\"{name}: expected array\"))?;\n\
                 Ok({name}({}))",
                elems.join(", ")
            );
            // Elements past the arity are ignored, as `xs.get` ignores them.
            let pulled: Vec<String> = (0..arity)
                .map(|_| {
                    format!(
                        "{{ if !p.next_element()? {{\
                             return Err(::serde::Error::msg(\"{name}: tuple too short\")); }}\
                           ::serde::Deserialize::from_parser(p)? }}"
                    )
                })
                .collect();
            let from_parser = format!(
                "if p.peek() != Some(b'[') {{ return Self::from_value(&p.value()?); }}\n\
                 p.begin_array()?;\n\
                 let out = {name}({});\n\
                 while p.next_element()? {{ p.skip()?; }}\n\
                 Ok(out)",
                pulled.join(", ")
            );
            (name, from_value, from_parser)
        }
        Shape::UnitEnum { name, variants } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| format!("{v:?} => Ok({name}::{v})"))
                .collect();
            let arms = format!(
                "{}, other => Err(::serde::Error::msg(\
                     format!(\"unknown {name} variant {{other:?}}\")))",
                arms.join(", ")
            );
            let from_value = format!(
                "let s = v.as_str().ok_or_else(\
                     || ::serde::Error::msg(\"{name}: expected variant string\"))?;\n\
                 match s {{ {arms} }}"
            );
            let from_parser = format!(
                "if p.peek() != Some(b'\"') {{ return Self::from_value(&p.value()?); }}\n\
                 match &*p.str()? {{ {arms} }}"
            );
            (name, from_value, from_parser)
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn from_value(v: &::serde::Value) -> Result<Self, ::serde::Error> {{\n\
                 {from_value}\n\
             }}\n\
             fn from_parser(p: &mut ::serde::Parser<'_>) -> Result<Self, ::serde::Error> {{\n\
                 {from_parser}\n\
             }}\n\
         }}"
    )
    .parse()
    .unwrap()
}

/// The two read paths of a named-field struct. The tree read looks every
/// field up with `Value::field`; the pull read walks the object's keys in
/// text order into one slot per field, so it resolves keys the same way:
/// the first occurrence wins and later ones are skipped, unknown keys are
/// skipped, and a field with no key reads from `null`. A value that is not
/// an object takes the tree read, whose `field` sees `null` everywhere.
fn named_struct(name: &str, fields: &[String]) -> (String, String) {
    let context =
        |f: &str| format!("map_err(|e| ::serde::Error::msg(format!(\"{name}.{f}: {{e}}\")))");
    let from_value: Vec<String> = fields
        .iter()
        .map(|f| {
            format!(
                "{f}: ::serde::Deserialize::from_value(v.field({f:?})).{}?",
                context(f)
            )
        })
        .collect();
    let from_value = format!("Ok({name} {{ {} }})", from_value.join(", "));

    let slots: String = (0..fields.len())
        .map(|i| format!("let mut slot{i} = None;\n"))
        .collect();
    let arms: String = fields
        .iter()
        .enumerate()
        .map(|(i, f)| {
            format!(
                "{f:?} if slot{i}.is_none() => \
                     slot{i} = Some(::serde::Deserialize::from_parser(p).{}?),\n",
                context(f)
            )
        })
        .collect();
    let inits: Vec<String> = fields
        .iter()
        .enumerate()
        .map(|(i, f)| {
            format!(
                "{f}: match slot{i} {{ Some(x) => x, None => \
                     ::serde::Deserialize::from_value(&::serde::Value::Null).{}? }}",
                context(f)
            )
        })
        .collect();
    let from_parser = format!(
        "if p.peek() != Some(b'{{') {{ return Self::from_value(&p.value()?); }}\n\
         p.begin_object()?;\n\
         {slots}\
         while let Some(key) = p.next_key()? {{\n\
             match &*key {{\n{arms}_ => p.skip()?,\n}}\n\
         }}\n\
         Ok({name} {{ {} }})",
        inits.join(", ")
    );
    (from_value, from_parser)
}
