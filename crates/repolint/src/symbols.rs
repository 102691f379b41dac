//! Workspace-wide symbol table: every function (free, inherent method,
//! trait-impl method), every named `pub` item, and every `use` binding
//! (including renames) across all parsed files, indexed for the
//! call-graph and dead-API passes.

use crate::source::{file_kind, FileKind};
use crate::Workspace;
use std::collections::BTreeMap;
use syn::{Item, ItemKind, Token, TokenKind, Visibility};

/// One function definition anywhere in the workspace.
#[derive(Debug, Clone)]
pub struct FnSym {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Cargo package name of the defining crate.
    pub crate_name: String,
    /// Module path within the crate (file-derived plus inline `mod`s).
    pub module: Vec<String>,
    /// Function identifier.
    pub name: String,
    /// Enclosing `impl` self type, for methods/associated functions.
    pub self_ty: Option<String>,
    /// Trait being implemented, when inside `impl Trait for Type`.
    pub trait_impl: Option<String>,
    /// True when declared inside a `trait` definition.
    pub in_trait_decl: bool,
    /// Body token range in the file's token stream, when present.
    pub body: Option<(usize, usize)>,
    /// 1-based line of the definition.
    pub line: usize,
    /// True when the definition is inside test-marked code.
    pub is_test: bool,
    /// Visibility modifier.
    pub vis: Visibility,
}

impl FnSym {
    /// `Type::name` for associated functions, `name` for free functions.
    pub fn qual(&self) -> String {
        match &self.self_ty {
            Some(ty) => format!("{ty}::{}", self.name),
            None => self.name.clone(),
        }
    }

    /// Whether a configured `entry_points` name (`Type::method` or a
    /// bare function name) denotes this function.
    pub(crate) fn is_entry(&self, entry: &str) -> bool {
        self.name == entry || self.qual() == entry
    }
}

/// One named `pub` item (dead-API candidate universe).
#[derive(Debug, Clone)]
pub struct PubItem {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Cargo package name of the defining crate.
    pub crate_name: String,
    /// Item classification.
    pub kind: ItemKind,
    /// Item name.
    pub name: String,
    /// Enclosing `impl` self type for methods/associated consts.
    pub self_ty: Option<String>,
    /// Trait being implemented, when inside `impl Trait for Type`.
    pub trait_impl: Option<String>,
    /// True when declared inside a `trait` definition.
    pub in_trait_decl: bool,
    /// 1-based line of the definition.
    pub line: usize,
    /// True when the definition is inside test-marked code.
    pub is_test: bool,
}

/// One `use` binding: a local name and the path it refers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseBinding {
    /// Name visible in the importing file (after any `as` rename).
    pub local: String,
    /// Full imported path segments.
    pub path: Vec<String>,
}

/// The workspace symbol table.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// Every function definition.
    pub fns: Vec<FnSym>,
    /// Function indices by bare name.
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// `use` bindings per file (indexed like [`Workspace::files`]).
    pub uses: Vec<Vec<UseBinding>>,
    /// Every named `pub` item.
    pub pub_items: Vec<PubItem>,
    /// Workspace crate names (deduplicated, sorted).
    pub crates: Vec<String>,
}

impl SymbolTable {
    /// Build the table from a parsed workspace.
    pub fn build(ws: &Workspace) -> SymbolTable {
        let mut table = SymbolTable::default();
        for (fi, pf) in ws.files.iter().enumerate() {
            if !table.crates.contains(&pf.crate_name) {
                table.crates.push(pf.crate_name.clone());
            }
            let module = module_path_of(&pf.rel);
            let mut uses = Vec::new();
            let walk_ctx = WalkCtx {
                file: fi,
                crate_name: &pf.crate_name,
                tokens: &pf.file.tokens,
                lib: file_kind(&pf.rel) == FileKind::Lib,
            };
            collect_items(
                &walk_ctx,
                &pf.file.items,
                &module,
                None,
                None,
                false,
                false,
                &mut table,
                &mut uses,
            );
            table.uses.push(uses);
        }
        table.crates.sort();
        for (i, f) in table.fns.iter().enumerate() {
            table.by_name.entry(f.name.clone()).or_default().push(i);
        }
        table
    }

    /// Function indices with this bare name.
    pub fn fns_named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The workspace crate whose `lib` name matches a path segment
    /// (`abft_memsim` → `abft-memsim`).
    pub fn crate_for_seg(&self, seg: &str) -> Option<&str> {
        self.crates.iter().find(|c| c.replace('-', "_") == seg).map(String::as_str)
    }
}

/// Module path a file contributes (`crates/x/src/a/b.rs` → `[a, b]`).
/// `lib.rs`, `main.rs`, `mod.rs` tails and non-`src` roots collapse
/// sensibly; binaries/tests/benches get an empty module path.
fn module_path_of(rel: &str) -> Vec<String> {
    let Some(at) = rel.find("/src/") else { return Vec::new() };
    let tail = &rel[at + "/src/".len()..];
    if tail.starts_with("bin/") {
        return Vec::new();
    }
    let mut parts: Vec<String> = tail.split('/').map(str::to_string).collect();
    if let Some(last) = parts.last_mut() {
        if let Some(stem) = last.strip_suffix(".rs") {
            *last = stem.to_string();
        }
    }
    match parts.last().map(String::as_str) {
        Some("lib") | Some("main") | Some("mod") => {
            parts.pop();
        }
        _ => {}
    }
    parts
}

struct WalkCtx<'a> {
    file: usize,
    crate_name: &'a str,
    tokens: &'a [Token],
    lib: bool,
}

#[allow(clippy::too_many_arguments)]
fn collect_items(
    ctx: &WalkCtx<'_>,
    items: &[Item],
    module: &[String],
    self_ty: Option<&str>,
    trait_impl: Option<&str>,
    in_trait_decl: bool,
    in_test: bool,
    table: &mut SymbolTable,
    uses: &mut Vec<UseBinding>,
) {
    for item in items {
        let is_test = in_test || item.attrs.iter().any(syn::Attribute::is_test_marker);
        match item.kind {
            ItemKind::Use => {
                let (lo, hi) = item.tokens;
                parse_use_tokens(&ctx.tokens[lo..hi], uses);
            }
            ItemKind::Fn => {
                if let Some(name) = &item.ident {
                    table.fns.push(FnSym {
                        file: ctx.file,
                        crate_name: ctx.crate_name.to_string(),
                        module: module.to_vec(),
                        name: name.clone(),
                        self_ty: self_ty.map(str::to_string),
                        trait_impl: trait_impl.map(str::to_string),
                        in_trait_decl,
                        body: item.body,
                        line: item.line,
                        is_test,
                        vis: item.vis,
                    });
                }
            }
            _ => {}
        }
        // `pub` item universe: named items in library files.
        if ctx.lib && item.vis == Visibility::Pub {
            if let Some(name) = &item.ident {
                if item.kind != ItemKind::Impl && item.kind != ItemKind::Use {
                    table.pub_items.push(PubItem {
                        file: ctx.file,
                        crate_name: ctx.crate_name.to_string(),
                        kind: item.kind,
                        name: name.clone(),
                        self_ty: self_ty.map(str::to_string),
                        trait_impl: trait_impl.map(str::to_string),
                        in_trait_decl,
                        line: item.line,
                        is_test,
                    });
                }
            }
        }
        match item.kind {
            ItemKind::Mod => {
                let mut inner = module.to_vec();
                if let Some(name) = &item.ident {
                    inner.push(name.clone());
                }
                collect_items(ctx, &item.children, &inner, None, None, false, is_test, table, uses);
            }
            ItemKind::Impl => {
                collect_items(
                    ctx,
                    &item.children,
                    module,
                    item.ident.as_deref(),
                    item.trait_name.as_deref(),
                    false,
                    is_test,
                    table,
                    uses,
                );
            }
            ItemKind::Trait => {
                collect_items(
                    ctx,
                    &item.children,
                    module,
                    item.ident.as_deref(),
                    None,
                    true,
                    is_test,
                    table,
                    uses,
                );
            }
            _ => {}
        }
    }
}

/// Parse the token stream of one `use` item (`use a::b::{c as d, e::*};`)
/// into flat bindings. Globs contribute no binding.
fn parse_use_tokens(tokens: &[Token], out: &mut Vec<UseBinding>) {
    // Skip to just past the `use` keyword.
    let Some(start) = tokens.iter().position(|t| t.is_ident("use")) else { return };
    let mut i = start + 1;
    parse_use_tree(tokens, &mut i, &mut Vec::new(), out);
}

fn parse_use_tree(
    tokens: &[Token],
    i: &mut usize,
    prefix: &mut Vec<String>,
    out: &mut Vec<UseBinding>,
) {
    let depth0 = prefix.len();
    loop {
        match tokens.get(*i) {
            Some(t) if t.kind == TokenKind::Ident && t.text == "as" => {
                *i += 1;
                if let Some(n) = tokens.get(*i) {
                    if n.kind == TokenKind::Ident {
                        out.push(UseBinding { local: n.text.clone(), path: prefix.clone() });
                        *i += 1;
                    }
                }
                prefix.truncate(depth0.min(prefix.len()));
                return;
            }
            Some(t) if t.kind == TokenKind::Ident => {
                prefix.push(t.text.clone());
                *i += 1;
                match tokens.get(*i) {
                    Some(n) if n.is_punct("::") => {
                        *i += 1;
                        match tokens.get(*i) {
                            Some(b) if b.is_punct("{") => {
                                // Group: each comma-separated subtree
                                // restarts from the current prefix.
                                *i += 1;
                                loop {
                                    match tokens.get(*i) {
                                        None => break,
                                        Some(t) if t.is_punct("}") => {
                                            *i += 1;
                                            break;
                                        }
                                        Some(t) if t.is_punct(",") => {
                                            *i += 1;
                                        }
                                        Some(_) => {
                                            let mut sub = prefix.clone();
                                            parse_use_tree(tokens, i, &mut sub, out);
                                        }
                                    }
                                }
                                return;
                            }
                            Some(b) if b.is_punct("*") => {
                                *i += 1;
                                return; // glob: no binding
                            }
                            _ => continue, // next segment
                        }
                    }
                    Some(n) if n.kind == TokenKind::Ident && n.text == "as" => continue,
                    _ => {
                        // End of this tree: binds its last segment.
                        if let Some(last) = prefix.last().cloned() {
                            out.push(UseBinding { local: last, path: prefix.clone() });
                        }
                        return;
                    }
                }
            }
            Some(t) if t.is_punct("{") => {
                // `use {a, b};` (rare) — treat as group with empty prefix.
                *i += 1;
                loop {
                    match tokens.get(*i) {
                        None => break,
                        Some(t) if t.is_punct("}") => {
                            *i += 1;
                            break;
                        }
                        Some(t) if t.is_punct(",") => {
                            *i += 1;
                        }
                        Some(_) => {
                            let mut sub = prefix.clone();
                            parse_use_tree(tokens, i, &mut sub, out);
                        }
                    }
                }
                return;
            }
            _ => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bindings(src: &str) -> Vec<(String, String)> {
        let file = syn::parse_file(src).expect("parses");
        let mut out = Vec::new();
        for item in &file.items {
            if item.kind == ItemKind::Use {
                let (lo, hi) = item.tokens;
                parse_use_tokens(&file.tokens[lo..hi], &mut out);
            }
        }
        out.into_iter().map(|b| (b.local, b.path.join("::"))).collect()
    }

    #[test]
    fn plain_grouped_and_renamed_uses() {
        let got = bindings(
            "use std::collections::BTreeMap;\n\
             use abft_memsim::{Machine, system::SimStats as Stats};\n\
             use rand::prelude::*;\n\
             pub use crate::campaign::Campaign;\n",
        );
        assert_eq!(
            got,
            vec![
                ("BTreeMap".to_string(), "std::collections::BTreeMap".to_string()),
                ("Machine".to_string(), "abft_memsim::Machine".to_string()),
                ("Stats".to_string(), "abft_memsim::system::SimStats".to_string()),
                ("Campaign".to_string(), "crate::campaign::Campaign".to_string()),
            ]
        );
    }

    #[test]
    fn nested_groups() {
        let got = bindings("use a::{b::{c, d as e}, f};\n");
        assert_eq!(
            got,
            vec![
                ("c".to_string(), "a::b::c".to_string()),
                ("e".to_string(), "a::b::d".to_string()),
                ("f".to_string(), "a::f".to_string()),
            ]
        );
    }

    #[test]
    fn module_paths_from_rel() {
        assert_eq!(module_path_of("crates/memsim/src/lib.rs"), Vec::<String>::new());
        assert_eq!(module_path_of("crates/memsim/src/dram.rs"), vec!["dram"]);
        assert_eq!(module_path_of("crates/x/src/a/b.rs"), vec!["a", "b"]);
        assert_eq!(module_path_of("crates/x/src/a/mod.rs"), vec!["a"]);
        assert_eq!(module_path_of("crates/bench/src/bin/fig07.rs"), Vec::<String>::new());
        assert_eq!(module_path_of("tests/campaign.rs"), Vec::<String>::new());
    }
}
