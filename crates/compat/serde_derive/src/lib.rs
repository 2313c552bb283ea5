//! Derive-macro half of the in-tree `serde` shim.
//!
//! Generates genuine field-by-field `Serialize`/`Deserialize`
//! implementations against the shim's `Value` data model — named-field
//! structs become maps in declaration order, newtype structs are
//! transparent, unit enum variants become strings and data-carrying
//! variants become single-entry maps (serde's external tagging). The
//! parser is hand-rolled over `proc_macro::TokenStream` (no `syn`), which
//! covers every plain (non-generic) type in this workspace; generic items
//! get no impl rather than a wrong one.
//!
//! One field attribute is understood, with serde's meaning:
//! `#[serde(skip_serializing_if = "path")]` leaves a named field out of
//! the serialized map whenever `path(&field)` is true. Absent keys read
//! back as `null`, so an `Option` field marked `"Option::is_none"`
//! round-trips. Any other `serde(...)` attribute fails the derive.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Some(item) => gen_serialize(&item).parse().unwrap_or_default(),
        None => TokenStream::new(),
    }
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Some(item) => gen_deserialize(&item).parse().unwrap_or_default(),
        None => TokenStream::new(),
    }
}

// ---------------------------------------------------------------------------
// A minimal item model.
// ---------------------------------------------------------------------------

enum Fields {
    /// Named fields, in declaration order.
    Named(Vec<Field>),
    /// Tuple fields (arity only — the generated code never names types).
    Tuple(usize),
    /// No payload.
    Unit,
}

struct Field {
    name: String,
    /// The `skip_serializing_if` predicate path, if the field has one.
    skip_if: Option<String>,
}

struct Variant {
    name: String,
    fields: Fields,
}

enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

// ---------------------------------------------------------------------------
// Parsing.
// ---------------------------------------------------------------------------

/// Parses `struct`/`enum` definitions far enough to know the name, the
/// field names and the variant shapes. Returns `None` for shapes the
/// generator does not support (generics, unions).
fn parse_item(input: TokenStream) -> Option<Item> {
    let mut tokens = input.into_iter().peekable();

    // Skip attributes and qualifiers until `struct` / `enum`.
    let mut keyword = None;
    while let Some(tt) = tokens.next() {
        match tt {
            TokenTree::Punct(ref p) if p.as_char() == '#' => {
                tokens.next(); // the [...] group
            }
            TokenTree::Ident(ref id) => {
                let s = id.to_string();
                if s == "struct" || s == "enum" {
                    keyword = Some(s);
                    break;
                }
                if s == "union" {
                    return None;
                }
            }
            _ => {}
        }
    }
    let keyword = keyword?;
    let name = match tokens.next() {
        Some(TokenTree::Ident(n)) => n.to_string(),
        _ => return None,
    };

    // Bail on generic items: a blind impl would be wrong.
    if let Some(TokenTree::Punct(p)) = tokens.peek() {
        if p.as_char() == '<' {
            return None;
        }
    }

    if keyword == "enum" {
        let body = next_group(&mut tokens, Delimiter::Brace)?;
        let variants = parse_variants(body)?;
        return Some(Item::Enum { name, variants });
    }

    // Struct: named `{...}`, tuple `(...);` or unit `;`.
    match tokens.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Some(Item::Struct {
            fields: Fields::Named(parse_named_fields(g.stream())?),
            name,
        }),
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            Some(Item::Struct {
                fields: Fields::Tuple(count_tuple_fields(g.stream())),
                name,
            })
        }
        Some(TokenTree::Punct(p)) if p.as_char() == ';' => Some(Item::Struct {
            fields: Fields::Unit,
            name,
        }),
        _ => None,
    }
}

fn next_group(
    tokens: &mut std::iter::Peekable<impl Iterator<Item = TokenTree>>,
    delim: Delimiter,
) -> Option<TokenStream> {
    loop {
        match tokens.next()? {
            TokenTree::Group(g) if g.delimiter() == delim => return Some(g.stream()),
            TokenTree::Punct(p) if p.as_char() == '#' => {
                tokens.next();
            }
            TokenTree::Ident(_) => {}
            _ => return None,
        }
    }
}

/// Splits a brace-group body into top-level comma-separated chunks.
/// Delimited groups arrive as single `TokenTree::Group`s, so only `<`/`>`
/// need explicit depth tracking.
fn split_top_level(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut chunks = vec![Vec::new()];
    let mut depth = 0i32;
    for tt in stream {
        if let TokenTree::Punct(ref p) = tt {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => {
                    chunks.push(Vec::new());
                    continue;
                }
                _ => {}
            }
        }
        chunks.last_mut().expect("non-empty").push(tt);
    }
    chunks.retain(|c| !c.is_empty());
    chunks
}

/// `#[attr] pub(crate) name: Type` → the field, per top-level chunk.
fn parse_named_fields(stream: TokenStream) -> Option<Vec<Field>> {
    split_top_level(stream)
        .into_iter()
        .map(|chunk| parse_field(&chunk))
        .collect()
}

fn parse_field(chunk: &[TokenTree]) -> Option<Field> {
    let mut skip_if = None;
    let mut i = 0;
    while i < chunk.len() {
        match &chunk[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                if let Some(TokenTree::Group(attr)) = chunk.get(i + 1) {
                    skip_if = skip_if.or(skip_serializing_if(attr.stream()));
                }
                i += 2; // attr group
            }
            TokenTree::Ident(id) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(_)) = chunk.get(i) {
                    i += 1; // pub(crate)
                }
            }
            TokenTree::Ident(id) => {
                // The field name is the ident right before the `:`.
                return match chunk.get(i + 1) {
                    Some(TokenTree::Punct(p)) if p.as_char() == ':' => Some(Field {
                        name: id.to_string(),
                        skip_if,
                    }),
                    _ => None,
                };
            }
            _ => return None,
        }
    }
    None
}

/// The predicate path of a `serde(skip_serializing_if = "path")`
/// attribute body; `None` for other tools' attributes (doc comments
/// included).
///
/// # Panics
///
/// On any other `serde(...)` attribute, so the derive fails at the
/// attribute instead of silently ignoring it.
fn skip_serializing_if(attr: TokenStream) -> Option<String> {
    let tokens: Vec<TokenTree> = attr.into_iter().collect();
    let [TokenTree::Ident(tool), TokenTree::Group(args)] = tokens.as_slice() else {
        return None;
    };
    if tool.to_string() != "serde" {
        return None;
    }
    let inner: Vec<TokenTree> = args.stream().into_iter().collect();
    match inner.as_slice() {
        [TokenTree::Ident(key), TokenTree::Punct(eq), TokenTree::Literal(path)]
            if key.to_string() == "skip_serializing_if" && eq.as_char() == '=' =>
        {
            Some(path.to_string().trim_matches('"').to_string())
        }
        _ => panic!(
            "unsupported attribute `serde{args}`: the serde shim implements only \
             `skip_serializing_if = \"path\"`"
        ),
    }
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    split_top_level(stream).len()
}

fn parse_variants(stream: TokenStream) -> Option<Vec<Variant>> {
    split_top_level(stream)
        .into_iter()
        .map(|chunk| {
            let mut i = 0;
            // Skip attributes (doc comments included).
            while let Some(TokenTree::Punct(p)) = chunk.get(i) {
                if p.as_char() != '#' {
                    break;
                }
                i += 2;
            }
            let name = match chunk.get(i) {
                Some(TokenTree::Ident(id)) => id.to_string(),
                _ => return None,
            };
            let fields = match chunk.get(i + 1) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g.stream())?)
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(count_tuple_fields(g.stream()))
                }
                None => Fields::Unit,
                // `= discriminant` and anything else unsupported.
                _ => return None,
            };
            Some(Variant { name, fields })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Code generation.
// ---------------------------------------------------------------------------

/// Map construction over named fields in declaration order. `access`
/// renders an expression borrowing a field's value; a field with a
/// `skip_serializing_if` predicate is left out whenever it holds.
fn ser_named(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let entry = |f: &Field| {
        format!(
            "(::std::string::String::from(\"{}\"), serde::Serialize::to_value({}))",
            f.name,
            access(&f.name)
        )
    };
    if fields.iter().all(|f| f.skip_if.is_none()) {
        let entries: Vec<String> = fields.iter().map(entry).collect();
        return format!("serde::Value::Map(::std::vec![{}])", entries.join(", "));
    }
    let pushes: Vec<String> = fields
        .iter()
        .map(|f| match &f.skip_if {
            Some(skip) => format!(
                "if !{skip}({}) {{ fields.push({}); }}",
                access(&f.name),
                entry(f)
            ),
            None => format!("fields.push({});", entry(f)),
        })
        .collect();
    format!(
        "{{ let mut fields = ::std::vec::Vec::new(); {} serde::Value::Map(fields) }}",
        pushes.join(" ")
    )
}

/// Field-by-field struct-literal body for deserialization.
fn de_named(fields: &[Field], ty_path: &str, source: &str) -> String {
    let inits: Vec<String> = fields
        .iter()
        .map(|f| format!("{n}: serde::field({source}, \"{n}\")?", n = f.name))
        .collect();
    format!("{ty_path} {{ {} }}", inits.join(", "))
}

fn gen_serialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Named(fs) => ser_named(fs, |f| format!("&self.{f}")),
                Fields::Tuple(1) => "serde::Serialize::to_value(&self.0)".to_string(),
                Fields::Tuple(n) => {
                    let items: Vec<String> = (0..*n)
                        .map(|i| format!("serde::Serialize::to_value(&self.{i})"))
                        .collect();
                    format!("serde::Value::Seq(::std::vec![{}])", items.join(", "))
                }
                Fields::Unit => "serde::Value::Null".to_string(),
            };
            (name, body)
        }
        Item::Enum { name, variants } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    match &v.fields {
                        Fields::Unit => format!(
                            "{name}::{vn} => \
                             serde::Value::Str(::std::string::String::from(\"{vn}\")),"
                        ),
                        Fields::Tuple(1) => format!(
                            "{name}::{vn}(f0) => \
                             serde::variant(\"{vn}\", serde::Serialize::to_value(f0)),"
                        ),
                        Fields::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                            let items: Vec<String> = binds
                                .iter()
                                .map(|b| format!("serde::Serialize::to_value({b})"))
                                .collect();
                            format!(
                                "{name}::{vn}({}) => serde::variant(\"{vn}\", \
                                 serde::Value::Seq(::std::vec![{}])),",
                                binds.join(", "),
                                items.join(", ")
                            )
                        }
                        Fields::Named(fs) => {
                            // Match bindings are already references.
                            let map = ser_named(fs, |f| f.to_string());
                            let binds: Vec<&str> = fs.iter().map(|f| f.name.as_str()).collect();
                            format!(
                                "{name}::{vn} {{ {} }} => serde::variant(\"{vn}\", {map}),",
                                binds.join(", ")
                            )
                        }
                    }
                })
                .collect();
            (name, format!("match self {{ {} }}", arms.join(" ")))
        }
    };
    format!(
        "impl serde::Serialize for {name} {{\n\
         fn to_value(&self) -> serde::Value {{ {body} }}\n\
         }}"
    )
}

fn gen_deserialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Named(fs) => {
                    let lit = de_named(fs, name, "value");
                    format!(
                        "match value {{\n\
                         serde::Value::Map(_) => ::core::result::Result::Ok({lit}),\n\
                         other => ::core::result::Result::Err(\
                         serde::Error::invalid_type(\"map\", other)),\n\
                         }}"
                    )
                }
                Fields::Tuple(1) => format!(
                    "::core::result::Result::Ok({name}(\
                     serde::Deserialize::from_value(value)?))"
                ),
                Fields::Tuple(n) => {
                    let inits: Vec<String> = (0..*n)
                        .map(|i| {
                            format!(
                                "serde::Deserialize::from_value(&items[{i}])\
                                 .map_err(|e| e.at(\"{i}\"))?"
                            )
                        })
                        .collect();
                    format!(
                        "{{ let items = serde::seq_of(value, \"{name}\", {n})?;\n\
                         ::core::result::Result::Ok({name}({})) }}",
                        inits.join(", ")
                    )
                }
                Fields::Unit => format!("::core::result::Result::Ok({name})"),
            };
            (name, body)
        }
        Item::Enum { name, variants } => {
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|v| matches!(v.fields, Fields::Unit))
                .map(|v| {
                    format!(
                        "\"{vn}\" => ::core::result::Result::Ok({name}::{vn}),",
                        vn = v.name
                    )
                })
                .collect();
            let data_arms: Vec<String> = variants
                .iter()
                .filter_map(|v| {
                    let vn = &v.name;
                    let build = match &v.fields {
                        Fields::Unit => return None,
                        Fields::Tuple(1) => format!(
                            "::core::result::Result::Ok({name}::{vn}(\
                             serde::Deserialize::from_value(payload)\
                             .map_err(|e| e.at(\"{vn}\"))?))"
                        ),
                        Fields::Tuple(n) => {
                            let inits: Vec<String> = (0..*n)
                                .map(|i| {
                                    format!(
                                        "serde::Deserialize::from_value(&items[{i}])\
                                         .map_err(|e| e.at(\"{vn}\"))?"
                                    )
                                })
                                .collect();
                            format!(
                                "{{ let items = serde::seq_of(payload, \"{name}::{vn}\", {n})?;\n\
                                 ::core::result::Result::Ok({name}::{vn}({})) }}",
                                inits.join(", ")
                            )
                        }
                        Fields::Named(fs) => format!(
                            "::core::result::Result::Ok({})",
                            de_named(fs, &format!("{name}::{vn}"), "payload")
                        ),
                    };
                    Some(format!(
                        "::core::option::Option::Some((\"{vn}\", payload)) => {build},"
                    ))
                })
                .collect();
            let body = format!(
                "match value {{\n\
                 serde::Value::Str(s) => match s.as_str() {{\n\
                 {units}\n\
                 other => ::core::result::Result::Err(\
                 serde::Error::unknown_variant(\"{name}\", other)),\n\
                 }},\n\
                 _ => match serde::variant_parts(value) {{\n\
                 {datas}\n\
                 ::core::option::Option::Some((other, _)) => \
                 ::core::result::Result::Err(\
                 serde::Error::unknown_variant(\"{name}\", other)),\n\
                 ::core::option::Option::None => ::core::result::Result::Err(\
                 serde::Error::invalid_type(\"{name} variant\", value)),\n\
                 }},\n\
                 }}",
                units = unit_arms.join("\n"),
                datas = data_arms.join("\n"),
            );
            (name, body)
        }
    };
    format!(
        "impl serde::Deserialize for {name} {{\n\
         fn from_value(value: &serde::Value) \
         -> ::core::result::Result<{name}, serde::Error> {{\n\
         {body}\n\
         }}\n\
         }}"
    )
}
