//! The item parser: the one walk over a file's tokens that the graph and
//! dataflow layers read.
//!
//! Token-window rules are good enough for "this construct may not appear
//! in this file", useless for *reachability* properties ("no path from a
//! query entry point may release an ungated row"). This module sits
//! between the lexer and the call graph: it walks the token stream of one file and recovers
//! just enough item structure to build a workspace call graph, whose
//! nodes are the [`FnItem`]s recorded here —
//!
//! * `use` trees (aliases → full paths, for call resolution);
//! * `fn` items, free or inside `impl`/`trait` blocks, with visibility,
//!   owner type, and the line they start on;
//! * per-function **call sites** (bare calls, `path::to::calls`, and
//!   `.method(` calls), **index sites** (`x[i]`, `x[a..b]`, `m[&k]`:
//!   the panics rule P002 reports, since every crate root already denies
//!   `unwrap`/`expect`/`panic!` to clippy), and the set of identifiers the body
//!   **mentions** (anchors for the policy-gating rule);
//! * per-function **def-use chains** (`let` bindings, format-macro
//!   sites, per-argument identifier sets, return-value identifiers) —
//!   the inputs to the dataflow rules ([`crate::flow`]).
//!
//! The parser is deliberately shallow and fail-soft, in the same spirit
//! as the lexer: a construct it cannot interpret is skipped, which at
//! worst *misses an edge* (a false negative on one path), never invents
//! a finding on valid code it did understand. Known blind spots, chosen
//! over a real parse for std-only simplicity: turbofish calls
//! (`collect::<Vec<_>>()`), calls inside `const`/`static` initializers,
//! and `macro_rules!` bodies (skipped wholesale).

use crate::lexer::{Tok, Token};
use std::collections::BTreeSet;

/// How a call is written at the call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `f(…)`, `module::f(…)`, `Type::f(…)` — a path call.
    Path,
    /// `.f(…)` — a method call (receiver type unknown).
    Method,
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Path segments as written; a bare or method call has one segment.
    pub segs: Vec<String>,
    /// Path vs. method syntax.
    pub kind: CallKind,
    /// 1-based line.
    pub line: u32,
    /// Identifiers in each top-level comma-separated argument, in
    /// argument order (format-string captures included) — the def-use
    /// hand-off the dataflow layer matches against callee parameters.
    pub args: Vec<BTreeSet<String>>,
    /// The subset of each argument's identifiers that sit in *call
    /// position* (`name(…)`, not `.name(…)`): what hot-function names
    /// may be matched against without colliding with method idioms.
    pub arg_calls: Vec<BTreeSet<String>>,
    /// Sorted node indexes this call may reach, filled in by
    /// [`crate::graph::CallGraph::build`] (empty until then).
    pub targets: Vec<usize>,
}

/// One `let` statement (or `if let`/`while let` binding): the names the
/// pattern introduces and every identifier the initializer expression
/// mentions. Together with [`CallSite::args`] and [`FmtSite::args`]
/// these are the per-function def-use chains of the dataflow layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bind {
    /// Names bound by the pattern (type-annotation idents included — an
    /// over-approximation in the safe direction for taint tracking).
    pub names: BTreeSet<String>,
    /// Identifiers mentioned by the right-hand side, including called
    /// function names, field names and format-string captures.
    pub rhs: BTreeSet<String>,
    /// Right-hand-side identifiers in call position (`name(…)`, not
    /// `.name(…)`) — see [`CallSite::arg_calls`].
    pub calls: BTreeSet<String>,
}

/// One output-macro site (`panic!`, `println!`, `write!`, … — the
/// `PANIC_MACROS`, `PRINT_MACROS` and `WRITE_MACROS`): a candidate
/// sink of the dataflow layer, with every identifier its arguments
/// mention — explicit arguments and implicit `"{name}"` captures alike.
/// (`format!` is not a site: what it renders is a value, tracked through
/// the binding it initialises.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FmtSite {
    /// The macro name without the `!` (`write`, `println`, `panic`, …).
    pub name: String,
    /// 1-based line.
    pub line: u32,
    /// Identifiers mentioned anywhere in the macro's arguments,
    /// including `{capture}` names inside the format string.
    pub args: BTreeSet<String>,
    /// Argument identifiers in call position (`name(…)`, not
    /// `.name(…)`) — see [`CallSite::arg_calls`].
    pub calls: BTreeSet<String>,
}

/// One `fn` item — also a node of the workspace call graph.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// File the function lives in (`/`-separated, relative).
    pub path: String,
    /// The crate the file belongs to ([`crate_of`]).
    pub crate_name: String,
    /// The function's name.
    pub name: String,
    /// `impl` type or `trait` name when the fn is a method / default
    /// method; `None` for free functions.
    pub owner: Option<String>,
    /// Unrestricted `pub` (`pub(crate)` and friends are *not* public API).
    pub is_public: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Every call site in the body.
    pub calls: Vec<CallSite>,
    /// The line of every index expression in the body.
    pub indexes: Vec<u32>,
    /// Every identifier mentioned in the body (types included) — the
    /// anchor set for content rules like policy gating.
    pub mentions: BTreeSet<String>,
    /// Parameter names in declaration order (`self` excluded) — the
    /// receiving end of interprocedural argument-taint hand-off.
    pub params: Vec<String>,
    /// `let` bindings in source order (def-use chains).
    pub binds: Vec<Bind>,
    /// Output-macro sites in source order.
    pub fmts: Vec<FmtSite>,
    /// Identifiers mentioned in `return` expressions and the trailing
    /// expression — what the function's return value is built from.
    pub ret_idents: BTreeSet<String>,
}

impl FnItem {
    /// Render `crate::Owner::name` / `crate::name` for witness paths.
    pub fn qualified(&self) -> String {
        match &self.owner {
            Some(o) => format!("{}::{}::{}", self.crate_name, o, self.name),
            None => format!("{}::{}", self.crate_name, self.name),
        }
    }
}

/// One resolved `use` leaf: `alias` is the name in scope, `segs` the full
/// path as written (`use a::b as c` → alias `c`, segs `[a, b]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseItem {
    /// The in-scope name.
    pub alias: String,
    /// The full path segments.
    pub segs: Vec<String>,
}

/// All items recovered from one file.
#[derive(Debug, Clone)]
pub struct FileItems {
    /// `use` leaves, in source order.
    pub imports: Vec<UseItem>,
    /// `fn` items, in source order.
    pub fns: Vec<FnItem>,
}

/// Derive the crate name (underscore form) from a workspace-relative
/// path: `crates/engine/src/x.rs` → `pcqe_engine`, anything else (the
/// root `src/` tree) → `pcqe`. Fixture trees follow the same shape.
pub fn crate_of(path: &str) -> String {
    let mut parts = path.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(dir)) => format!("pcqe_{}", dir.replace('-', "_")),
        _ => "pcqe".to_owned(),
    }
}

/// The macros that abort instead of returning; the payload is an output
/// channel too (the error sink class).
pub(crate) const PANIC_MACROS: [&str; 4] = ["panic", "todo", "unimplemented", "unreachable"];

/// The macros that print (the shell sink class).
pub(crate) const PRINT_MACROS: [&str; 4] = ["print", "println", "eprint", "eprintln"];

/// The macros that write into a formatter (an error sink inside `fmt`).
pub(crate) const WRITE_MACROS: [&str; 2] = ["write", "writeln"];

/// Rust's strict and reserved keywords, less the two that can end a value
/// (`self[i]` and `fut.await[i]` index). A `[` after any of these opens an
/// array or a slice type (`for k in ["a", "b"]`, `&mut [f64]`), not an
/// index.
const KEYWORDS: [&str; 49] = [
    "Self", "abstract", "as", "async", "become", "box", "break", "const", "continue", "crate",
    "do", "dyn", "else", "enum", "extern", "false", "final", "fn", "for", "if", "impl", "in",
    "let", "loop", "macro", "match", "mod", "move", "mut", "override", "priv", "pub", "ref",
    "return", "static", "struct", "super", "trait", "true", "try", "type", "typeof", "unsafe",
    "unsized", "use", "virtual", "where", "while", "yield",
];

/// Implicit format captures in a literal body: `"β={threshold}"` →
/// `threshold`. `{{` escapes are skipped; positional (`{0}`) and bare
/// (`{}`/`{:?}`) specs name nothing; a `:` ends the name part.
fn fmt_captures(body: &str, out: &mut BTreeSet<String>) {
    let bytes = body.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'{' {
            i += 1;
            continue;
        }
        if bytes.get(i + 1) == Some(&b'{') {
            i += 2; // escaped `{{`
            continue;
        }
        let mut j = i + 1;
        while j < bytes.len() && bytes[j] != b'}' && bytes[j] != b':' {
            j += 1;
        }
        let name = &body[i + 1..j.min(body.len())];
        let is_ident = !name.is_empty()
            && name.as_bytes()[0].is_ascii_alphabetic()
            && name.bytes().all(|b| b == b'_' || b.is_ascii_alphanumeric());
        if is_ident {
            out.insert(name.to_owned());
        }
        i = j + 1;
    }
}

/// Parse one file's tokens into items. `mask[i]` marks tokens inside
/// `#[cfg(test)]` items (from [`crate::rules`]'s region mask); masked
/// items are skipped entirely — test code may panic.
pub fn collect(path: &str, toks: &[Token], mask: &[bool]) -> FileItems {
    let mut out = FileItems {
        imports: Vec::new(),
        fns: Vec::new(),
    };
    let mut p = ItemParser {
        path,
        crate_name: crate_of(path),
        toks,
        mask,
        out: &mut out,
    };
    p.items(0, toks.len(), None);
    out
}

struct ItemParser<'a> {
    path: &'a str,
    crate_name: String,
    toks: &'a [Token],
    mask: &'a [bool],
    out: &'a mut FileItems,
}

impl<'a> ItemParser<'a> {
    fn ident_at(&self, i: usize) -> Option<&str> {
        match self.toks.get(i).map(|t| &t.tok) {
            Some(Tok::Ident(w)) => Some(w.as_str()),
            _ => None,
        }
    }

    fn punct_at(&self, i: usize, c: char) -> bool {
        self.toks.get(i).is_some_and(|t| t.is_punct(c))
    }

    /// Skip a balanced group starting at the opener `open` at index `i`;
    /// returns the index just past the matching closer.
    fn skip_group(&self, mut i: usize, open: char, close: char) -> usize {
        let mut depth = 0usize;
        while i < self.toks.len() {
            if self.punct_at(i, open) {
                depth += 1;
            } else if self.punct_at(i, close) {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
        i
    }

    /// Item-level scan of `[start, end)`; `owner` is the enclosing
    /// `impl`/`trait` type name, if any.
    fn items(&mut self, start: usize, end: usize, owner: Option<&str>) {
        let mut i = start;
        let mut pending_pub = false;
        while i < end {
            if self.mask.get(i).copied().unwrap_or(false) {
                i += 1;
                pending_pub = false;
                continue;
            }
            // Attributes: skip `#[ … ]` wholesale.
            if self.punct_at(i, '#') && self.punct_at(i + 1, '[') {
                i = self.skip_group(i + 1, '[', ']');
                continue;
            }
            let Some(word) = self.ident_at(i) else {
                i += 1;
                pending_pub = false;
                continue;
            };
            match word {
                "pub" => {
                    if self.punct_at(i + 1, '(') {
                        // `pub(crate)` / `pub(in …)`: restricted, not API.
                        i = self.skip_group(i + 1, '(', ')');
                        pending_pub = false;
                    } else {
                        pending_pub = true;
                        i += 1;
                    }
                }
                // Modifiers between `pub` and `fn` keep the visibility.
                "const" | "unsafe" | "async" | "extern" => i += 1,
                "use" => {
                    i = self.use_item(i + 1);
                    pending_pub = false;
                }
                "mod" => {
                    // `mod name { … }` recurses; `mod name;` is inert.
                    let mut j = i + 1;
                    while j < end && !self.punct_at(j, '{') && !self.punct_at(j, ';') {
                        j += 1;
                    }
                    if self.punct_at(j, '{') {
                        let close = self.skip_group(j, '{', '}');
                        self.items(j + 1, close.saturating_sub(1), None);
                        i = close;
                    } else {
                        i = j + 1;
                    }
                    pending_pub = false;
                }
                "impl" => {
                    i = self.impl_or_trait(i + 1, false);
                    pending_pub = false;
                }
                "trait" => {
                    i = self.impl_or_trait(i + 1, true);
                    pending_pub = false;
                }
                "fn" => {
                    i = self.fn_item(i + 1, owner, pending_pub);
                    pending_pub = false;
                }
                "macro_rules" => {
                    // `macro_rules! name { … }`: arbitrary tokens, skip.
                    let mut j = i + 1;
                    while j < end
                        && !self.punct_at(j, '{')
                        && !self.punct_at(j, '(')
                        && !self.punct_at(j, '[')
                    {
                        j += 1;
                    }
                    i = match self.toks.get(j).map(|t| &t.tok) {
                        Some(Tok::Punct('{')) => self.skip_group(j, '{', '}'),
                        Some(Tok::Punct('(')) => self.skip_group(j, '(', ')'),
                        Some(Tok::Punct('[')) => self.skip_group(j, '[', ']'),
                        _ => j,
                    };
                    pending_pub = false;
                }
                "struct" | "enum" | "union" => {
                    // Skip to `;` or through the body: field lists contain
                    // no calls.
                    let mut j = i + 1;
                    while j < end && !self.punct_at(j, '{') && !self.punct_at(j, ';') {
                        j += 1;
                    }
                    i = if self.punct_at(j, '{') {
                        self.skip_group(j, '{', '}')
                    } else {
                        j + 1
                    };
                    pending_pub = false;
                }
                _ => {
                    i += 1;
                    pending_pub = false;
                }
            }
        }
    }

    /// Parse a `use` tree starting just past the `use` keyword; returns
    /// the index past the terminating `;`.
    fn use_item(&mut self, start: usize) -> usize {
        let mut end = start;
        while end < self.toks.len() && !self.punct_at(end, ';') {
            end += 1;
        }
        let mut prefix: Vec<String> = Vec::new();
        self.use_tree(start, end, &mut prefix);
        end + 1
    }

    /// Recursive `use`-tree walk over `[start, end)` with the running
    /// path `prefix`; emits one [`UseItem`] per leaf.
    fn use_tree(&mut self, start: usize, end: usize, prefix: &mut Vec<String>) {
        let depth_in = prefix.len();
        let mut i = start;
        while i < end {
            if let Some(w) = self.ident_at(i) {
                if w == "as" {
                    // `path as alias`: the alias names the full prefix.
                    if let Some(alias) = self.ident_at(i + 1) {
                        self.out.imports.push(UseItem {
                            alias: alias.to_owned(),
                            segs: prefix.clone(),
                        });
                    }
                    prefix.truncate(depth_in);
                    i += 2;
                    continue;
                }
                prefix.push(w.to_owned());
                i += 1;
                continue;
            }
            if self.punct_at(i, ':') {
                i += 1; // path separator (`::` comes as two `:`s)
                continue;
            }
            if self.punct_at(i, '{') {
                // Group: recurse over each comma-separated subtree.
                let close = self.skip_group(i, '{', '}');
                let mut seg_start = i + 1;
                let mut depth = 0usize;
                let mut j = i + 1;
                while j < close.saturating_sub(1) {
                    if self.punct_at(j, '{') {
                        depth += 1;
                    } else if self.punct_at(j, '}') {
                        depth = depth.saturating_sub(1);
                    } else if self.punct_at(j, ',') && depth == 0 {
                        let mut sub = prefix.clone();
                        self.use_tree(seg_start, j, &mut sub);
                        seg_start = j + 1;
                    }
                    j += 1;
                }
                let mut sub = prefix.clone();
                self.use_tree(seg_start, close.saturating_sub(1), &mut sub);
                prefix.truncate(depth_in);
                return; // a group ends the tree at this level
            }
            if self.punct_at(i, ',') || self.punct_at(i, '*') {
                // `*` globs are not resolvable name-by-name: ignored.
                prefix.truncate(depth_in);
                i += 1;
                continue;
            }
            i += 1;
        }
        // A plain path leaf: alias = last segment.
        if prefix.len() > depth_in {
            if let Some(last) = prefix.last().cloned() {
                // `use x::y::self;` (via groups `{self, …}`) names the
                // parent module.
                if last == "self" && prefix.len() >= 2 {
                    let segs: Vec<String> = prefix[..prefix.len() - 1].to_vec();
                    if let Some(alias) = segs.last().cloned() {
                        self.out.imports.push(UseItem { alias, segs });
                    }
                } else {
                    self.out.imports.push(UseItem {
                        alias: last,
                        segs: prefix.clone(),
                    });
                }
            }
        }
        prefix.truncate(depth_in);
    }

    /// Parse an `impl`/`trait` header starting just past the keyword and
    /// recurse into its body with the owner type set. Returns the index
    /// past the closing brace.
    fn impl_or_trait(&mut self, start: usize, is_trait: bool) -> usize {
        let mut i = start;
        let mut angle = 0usize;
        let mut owner: Option<String> = None;
        while i < self.toks.len() {
            match &self.toks[i].tok {
                Tok::Punct('<') => angle += 1,
                Tok::Punct('>') => angle = angle.saturating_sub(1),
                Tok::Punct('{') if angle == 0 => break,
                Tok::Punct(';') if angle == 0 => return i + 1, // `impl Foo;`? bail
                Tok::Ident(w) if angle == 0 => {
                    if w == "where" {
                        // Idents in a where-clause are bounds, not the type.
                        let mut j = i + 1;
                        while j < self.toks.len() && !self.punct_at(j, '{') {
                            j += 1;
                        }
                        i = j;
                        continue;
                    }
                    if w != "for" && w != "dyn" {
                        if is_trait {
                            // A trait's name is its first ident; bounds
                            // after `:` must not overwrite it.
                            let mut j = i + 1;
                            while j < self.toks.len() && !self.punct_at(j, '{') {
                                j += 1;
                            }
                            let close = self.skip_group(j, '{', '}');
                            self.items(j + 1, close.saturating_sub(1), Some(w.as_str()));
                            return close;
                        }
                        owner = Some(w.clone());
                    }
                }
                _ => {}
            }
            i += 1;
        }
        if !self.punct_at(i, '{') {
            return i;
        }
        let close = self.skip_group(i, '{', '}');
        self.items(i + 1, close.saturating_sub(1), owner.as_deref());
        close
    }

    /// Parse a `fn` item starting just past the `fn` keyword; scans the
    /// body for calls, panic sites and mentions. Returns the index past
    /// the body (or past `;` for a bodyless trait method).
    fn fn_item(&mut self, start: usize, owner: Option<&str>, is_public: bool) -> usize {
        let Some(name) = self.ident_at(start) else {
            return start + 1;
        };
        let name = name.to_owned();
        let line = self.toks[start].line;
        // Signature: find the parameter list, skip it, then scan to the
        // body `{` (or `;`). Return types and where-clauses contain no
        // braces, so the first `{` at paren-depth 0 opens the body; an
        // array type's `;` (`-> [u8; 2]`) is skipped with its brackets.
        let mut i = start + 1;
        while i < self.toks.len() && !self.punct_at(i, '(') && !self.punct_at(i, ';') {
            i += 1;
        }
        if !self.punct_at(i, '(') {
            return i + 1;
        }
        let params_open = i;
        i = self.skip_group(i, '(', ')');
        // Parameter names: idents directly followed by `:` at depth 1 of
        // the parameter group (`self` has no annotation and is skipped;
        // destructuring patterns are missed — a conservative gap that
        // only drops taint hand-off on constructs the tree avoids).
        let mut params: Vec<String> = Vec::new();
        {
            let mut depth = 0usize;
            for k in params_open..i.min(self.toks.len()) {
                match &self.toks[k].tok {
                    Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') | Tok::Punct('<') => {
                        depth += 1
                    }
                    Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') | Tok::Punct('>') => {
                        depth = depth.saturating_sub(1)
                    }
                    // `::`-paths in default-type positions don't occur
                    // in parameter lists; a lone `:` marks the name.
                    Tok::Ident(w)
                        if depth == 1
                            && self.punct_at(k + 1, ':')
                            && !self.punct_at(k + 2, ':') =>
                    {
                        params.push(w.clone());
                    }
                    _ => {}
                }
            }
        }
        while i < self.toks.len() && !self.punct_at(i, '{') && !self.punct_at(i, ';') {
            i = if self.punct_at(i, '[') {
                self.skip_group(i, '[', ']')
            } else {
                i + 1
            };
        }
        if !self.punct_at(i, '{') {
            return i + 1; // declaration only (trait method without body)
        }
        let close = self.skip_group(i, '{', '}');
        let mut item = FnItem {
            path: self.path.to_owned(),
            crate_name: self.crate_name.clone(),
            name,
            owner: owner.map(str::to_owned),
            is_public,
            line,
            calls: Vec::new(),
            indexes: Vec::new(),
            mentions: BTreeSet::new(),
            params,
            binds: Vec::new(),
            fmts: Vec::new(),
            ret_idents: BTreeSet::new(),
        };
        self.body(i + 1, close.saturating_sub(1), &mut item);
        self.ret_idents(i + 1, close.saturating_sub(1), &mut item.ret_idents);
        self.out.fns.push(item);
        close
    }

    /// Identifiers the function's return value is built from: everything
    /// mentioned after each `return` keyword (to the next `;`) plus the
    /// trailing expression (tokens after the last depth-0 `;` of the
    /// body). Both regions over-approximate — a `match` used as the
    /// trailing expression contributes every arm — which is the safe
    /// direction for return-value taint.
    fn ret_idents(&self, start: usize, end: usize, out: &mut BTreeSet<String>) {
        let mut depth = 0usize;
        let mut tail_start = start;
        for k in start..end.min(self.toks.len()) {
            match &self.toks[k].tok {
                Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                    depth = depth.saturating_sub(1)
                }
                Tok::Punct(';') if depth == 0 => tail_start = k + 1,
                Tok::Ident(w) if w == "return" => {
                    let mut j = k + 1;
                    while j < end.min(self.toks.len()) && !self.punct_at(j, ';') {
                        self.window_ident(j, out);
                        j += 1;
                    }
                }
                _ => {}
            }
        }
        for k in tail_start..end.min(self.toks.len()) {
            self.window_ident(k, out);
        }
    }

    /// Add the identifier at token `k` — or the format captures of a
    /// string literal at `k` — to `out`.
    fn window_ident(&self, k: usize, out: &mut BTreeSet<String>) {
        match &self.toks[k].tok {
            Tok::Ident(w) => {
                out.insert(w.clone());
            }
            Tok::LitStr(body) => fmt_captures(body, out),
            _ => {}
        }
    }

    /// The identifier set of the token window `[start, end)`: idents plus
    /// format captures of string literals.
    fn window_idents(&self, start: usize, end: usize) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for k in start..end.min(self.toks.len()) {
            self.window_ident(k, &mut out);
        }
        out
    }

    /// The call-position identifier set of `[start, end)`: idents
    /// immediately followed by `(` that are not method calls (no
    /// preceding `.`). Macro names (`name!(…)`) are excluded by the
    /// intervening `!`.
    fn window_calls(&self, start: usize, end: usize) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for k in start..end.min(self.toks.len()) {
            if let Tok::Ident(w) = &self.toks[k].tok {
                if self.punct_at(k + 1, '(') && (k == 0 || !self.punct_at(k - 1, '.')) {
                    out.insert(w.clone());
                }
            }
        }
        out
    }

    /// Per-argument identifier sets of a call group opening at `open`:
    /// one (full-window, call-position) pair of sets per top-level
    /// comma-separated argument.
    fn call_args(&self, open: usize) -> (Vec<BTreeSet<String>>, Vec<BTreeSet<String>>) {
        if !self.punct_at(open, '(') {
            return (Vec::new(), Vec::new());
        }
        let close = self.skip_group(open, '(', ')');
        let inner_end = close.saturating_sub(1).min(self.toks.len());
        if open + 1 >= inner_end {
            return (Vec::new(), Vec::new());
        }
        let mut args = Vec::new();
        let mut arg_calls = Vec::new();
        let mut depth = 0usize;
        let mut seg_start = open + 1;
        for k in open + 1..inner_end {
            match &self.toks[k].tok {
                Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                    depth = depth.saturating_sub(1)
                }
                Tok::Punct(',') if depth == 0 => {
                    args.push(self.window_idents(seg_start, k));
                    arg_calls.push(self.window_calls(seg_start, k));
                    seg_start = k + 1;
                }
                _ => {}
            }
        }
        args.push(self.window_idents(seg_start, inner_end));
        arg_calls.push(self.window_calls(seg_start, inner_end));
        (args, arg_calls)
    }

    /// Record the binding introduced by a `let` keyword at token `i`
    /// (plain `let`, `if let`, `while let`, `let … else`): pattern names
    /// from the region up to the `=`, initializer identifiers from the
    /// region up to the statement end. A lookahead only — the caller
    /// keeps scanning the same tokens for calls and sites.
    fn bind(&self, i: usize, end: usize, item: &mut FnItem) {
        // Pattern region: `let` to the first standalone `=` at depth 0
        // (`==`, `>=`, `<=`, `!=`, `=>` never appear before the binding
        // `=` of a well-formed let).
        let mut j = i + 1;
        let mut depth = 0usize;
        let limit = end.min(self.toks.len());
        while j < limit {
            match &self.toks[j].tok {
                Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') | Tok::Punct('<') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') | Tok::Punct('>') => {
                    depth = depth.saturating_sub(1)
                }
                Tok::Punct('=') if depth == 0 && !self.punct_at(j + 1, '=') => break,
                Tok::Punct(';') if depth == 0 => return, // `let x;` — no initializer
                _ => {}
            }
            j += 1;
        }
        if j >= limit {
            return;
        }
        let mut names = self.window_idents(i + 1, j);
        names.remove("mut");
        names.remove("ref");
        if names.is_empty() {
            return;
        }
        // Initializer region: `=` to the `;` at depth 0 (an `else` block
        // of `let … else` is included — over-approximation, safe).
        let mut k = j + 1;
        let mut depth = 0usize;
        while k < limit {
            match &self.toks[k].tok {
                Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                    depth = depth.saturating_sub(1)
                }
                Tok::Punct(';') if depth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        item.binds.push(Bind {
            names,
            rhs: self.window_idents(j + 1, k),
            calls: self.window_calls(j + 1, k),
        });
    }

    /// Scan a fn body `[start, end)` for calls, index sites and mentions.
    fn body(&self, start: usize, end: usize, item: &mut FnItem) {
        let mut i = start;
        while i < end {
            // Attributes inside bodies (`#[allow]` on statements).
            if self.punct_at(i, '#') && self.punct_at(i + 1, '[') {
                i = self.skip_group(i + 1, '[', ']');
                continue;
            }
            let t = &self.toks[i];
            match &t.tok {
                Tok::Ident(w) => {
                    item.mentions.insert(w.clone());
                    let called = self.punct_at(i + 1, '(');
                    let banged = self.punct_at(i + 1, '!');
                    let dotted = i > start && self.punct_at(i - 1, '.');
                    if w == "let" {
                        self.bind(i, end, item);
                        i += 1;
                        continue;
                    }
                    let output = [&PANIC_MACROS[..], &PRINT_MACROS, &WRITE_MACROS]
                        .iter()
                        .any(|family| family.contains(&w.as_str()));
                    if banged && output && self.punct_at(i + 2, '(') {
                        let close = self.skip_group(i + 2, '(', ')');
                        item.fmts.push(FmtSite {
                            name: w.clone(),
                            line: t.line,
                            args: self.window_idents(i + 3, close.saturating_sub(1)),
                            calls: self.window_calls(i + 3, close.saturating_sub(1)),
                        });
                    }
                    // `.unwrap()` and `.expect("…")` are std's, not a
                    // workspace method: no edge.
                    let std_unwrap = w == "unwrap"
                        || (w == "expect"
                            && (self.toks.get(i + 2))
                                .is_some_and(|n| matches!(n.tok, Tok::LitStr(_))));
                    if called && dotted && !std_unwrap {
                        let (args, arg_calls) = self.call_args(i + 1);
                        item.calls.push(CallSite {
                            segs: vec![w.clone()],
                            kind: CallKind::Method,
                            line: t.line,
                            args,
                            arg_calls,
                            targets: Vec::new(),
                        });
                    } else if called && !dotted {
                        // Walk back through `::`-joined segments.
                        let mut segs = vec![w.clone()];
                        let mut j = i;
                        while j >= 2
                            && self.punct_at(j - 1, ':')
                            && self.punct_at(j - 2, ':')
                            && j >= 3
                        {
                            if let Some(prev) = self.ident_at(j - 3) {
                                segs.insert(0, prev.to_owned());
                                j -= 3;
                            } else {
                                break;
                            }
                        }
                        let (args, arg_calls) = self.call_args(i + 1);
                        item.calls.push(CallSite {
                            segs,
                            kind: CallKind::Path,
                            line: t.line,
                            args,
                            arg_calls,
                            targets: Vec::new(),
                        });
                    }
                    i += 1;
                }
                Tok::Punct('[') => {
                    // Index expression: `x[i]`, `f()[i]`, `a[0][1]` — the
                    // opener follows a value. Attribute openers follow `#`
                    // (handled above); array types/literals follow
                    // punctuation or a keyword.
                    let indexes_value = i > 0
                        && match &self.toks[i - 1].tok {
                            Tok::Ident(w) => !KEYWORDS.contains(&w.as_str()),
                            Tok::Punct(c) => matches!(c, ')' | ']'),
                            _ => false,
                        };
                    if indexes_value {
                        item.indexes.push(t.line);
                    }
                    i += 1;
                }
                _ => i += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::test_region_mask;

    fn items(src: &str) -> FileItems {
        let toks = lex(src);
        let mask = test_region_mask(&toks);
        collect("crates/engine/src/x.rs", &toks, &mask)
    }

    #[test]
    fn crate_names_from_paths() {
        assert_eq!(crate_of("crates/engine/src/database.rs"), "pcqe_engine");
        assert_eq!(crate_of("crates/core/src/greedy.rs"), "pcqe_core");
        assert_eq!(crate_of("src/lib.rs"), "pcqe");
    }

    #[test]
    fn collects_free_and_method_fns_with_visibility() {
        let f = items(
            "pub fn api() { helper(); }\n\
             fn helper() {}\n\
             pub(crate) fn internal() {}\n\
             struct S;\n\
             impl S { pub fn m(&self) { self.n(); } fn n(&self) {} }\n",
        );
        let names: Vec<(&str, Option<&str>, bool)> = f
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.owner.as_deref(), f.is_public))
            .collect();
        assert_eq!(
            names,
            vec![
                ("api", None, true),
                ("helper", None, false),
                ("internal", None, false), // pub(crate) is not public API
                ("m", Some("S"), true),
                ("n", Some("S"), false),
            ]
        );
        assert_eq!(f.fns[0].calls.len(), 1);
        assert_eq!(f.fns[0].calls[0].segs, vec!["helper"]);
        assert_eq!(f.fns[3].calls[0].kind, CallKind::Method);
        assert_eq!(f.fns[3].calls[0].segs, vec!["n"]);
    }

    #[test]
    fn impl_trait_for_type_attributes_methods_to_the_type() {
        let f = items(
            "impl std::fmt::Display for Wide {\n\
               fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { write(f) }\n\
             }\n\
             impl<T: Clone> Holder<T> where T: Default { fn take(&self) {} }\n",
        );
        assert_eq!(f.fns[0].owner.as_deref(), Some("Wide"));
        assert_eq!(f.fns[1].owner.as_deref(), Some("Holder"));
    }

    #[test]
    fn records_path_calls_with_segments() {
        let f = items(
            "fn go() {\n\
               pcqe_algebra::execute_with(1);\n\
               crate::improve::propose();\n\
               Plan::scan(\"t\");\n\
             }\n",
        );
        let segs: Vec<Vec<String>> = f.fns[0].calls.iter().map(|c| c.segs.clone()).collect();
        assert_eq!(
            segs,
            vec![
                vec!["pcqe_algebra".to_owned(), "execute_with".to_owned()],
                vec![
                    "crate".to_owned(),
                    "improve".to_owned(),
                    "propose".to_owned()
                ],
                vec!["Plan".to_owned(), "scan".to_owned()],
            ]
        );
    }

    #[test]
    fn records_index_sites_only() {
        let f = items(
            "fn risky(v: Vec<u32>, o: Option<u32>) -> u32 {\n\
               let a = o.unwrap();\n\
               let b = o.expect(\"present\");\n\
               if a > b { panic!(\"boom\"); }\n\
               v[0] + v[a as usize]\n\
             }\n",
        );
        // `unwrap`/`expect`/`panic!` are clippy's: no site, and no edge.
        assert_eq!(f.fns[0].indexes, vec![5, 5]);
        assert!(f.fns[0].calls.is_empty(), "{:?}", f.fns[0].calls);
    }

    #[test]
    fn index_detection_skips_types_literals_and_attributes() {
        let f = items(
            "fn ok(x: [u8; 4], s: &[u8]) -> Vec<u8> {\n\
               #[allow(unused)]\n\
               let a: [u8; 2] = [1, 2];\n\
               let v = vec![1u8];\n\
               v\n\
             }\n",
        );
        assert!(f.fns[0].indexes.is_empty(), "{:?}", f.fns[0].indexes);
    }

    #[test]
    fn a_keyword_before_a_bracket_opens_an_array_not_an_index() {
        let f = items(
            "fn ok(out: &mut [f64]) -> [usize; 1] {\n\
               for key in [\"counters\", \"spans\"] { drop(key); }\n\
               let grid: &mut [f64] = out;\n\
               if true { return [1]; }\n\
               match [grid.len()] { _ => [3] }\n\
             }\n\
             fn risky(&self, m: &BTreeMap<u8, u8>, k: u8) -> u8 {\n\
               self[0] + m[&k]\n\
             }\n",
        );
        // An array return type is not a bodyless declaration.
        assert_eq!(f.fns.len(), 2);
        assert!(f.fns[0].indexes.is_empty(), "{:?}", f.fns[0].indexes);
        // `self` is a value, and a map index is an index like any other.
        assert_eq!(f.fns[1].indexes, vec![8, 8]);
    }

    #[test]
    fn parses_use_trees_with_groups_aliases_and_self() {
        let f = items(
            "use pcqe_policy::{evaluate_results, store::PolicyStore as Store};\n\
             use crate::improve::{self, ProposeOutcome};\n\
             use std::collections::BTreeMap;\n",
        );
        let got: Vec<(String, Vec<String>)> = f
            .imports
            .iter()
            .map(|u| (u.alias.clone(), u.segs.clone()))
            .collect();
        assert_eq!(
            got,
            vec![
                (
                    "evaluate_results".to_owned(),
                    vec!["pcqe_policy".to_owned(), "evaluate_results".to_owned()]
                ),
                (
                    "Store".to_owned(),
                    vec![
                        "pcqe_policy".to_owned(),
                        "store".to_owned(),
                        "PolicyStore".to_owned()
                    ]
                ),
                (
                    "improve".to_owned(),
                    vec!["crate".to_owned(), "improve".to_owned()]
                ),
                (
                    "ProposeOutcome".to_owned(),
                    vec![
                        "crate".to_owned(),
                        "improve".to_owned(),
                        "ProposeOutcome".to_owned()
                    ]
                ),
                (
                    "BTreeMap".to_owned(),
                    vec![
                        "std".to_owned(),
                        "collections".to_owned(),
                        "BTreeMap".to_owned()
                    ]
                ),
            ]
        );
    }

    #[test]
    fn cfg_test_items_are_invisible() {
        let f = items(
            "fn live() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
               fn t() { x.unwrap(); }\n\
             }\n",
        );
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].name, "live");
    }

    #[test]
    fn mentions_include_type_names() {
        let f = items("fn emit() -> ReleasedTuple { ReleasedTuple { x: 1 } }\n");
        assert!(f.fns[0].mentions.contains("ReleasedTuple"));
    }

    #[test]
    fn macro_rules_bodies_are_skipped() {
        let f = items("macro_rules! m { () => { fn fake() { x.unwrap(); } }; }\nfn real() {}\n");
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].name, "real");
    }

    #[test]
    fn records_params_excluding_self_and_nested_generics() {
        let f = items(
            "fn free(beta: f64, names: Vec<String>, pair: BTreeMap<String, u32>) {}\n\
             impl S { fn m(&self, threshold: f64) {} }\n",
        );
        assert_eq!(f.fns[0].params, vec!["beta", "names", "pair"]);
        assert_eq!(f.fns[1].params, vec!["threshold"]);
    }

    #[test]
    fn records_let_bindings_with_rhs_idents_and_captures() {
        let f = items(
            "fn go(policy: &Policy) -> f64 {\n\
               let beta = policy.threshold;\n\
               let msg = format!(\"gate at {beta}\");\n\
               let (a, b): (u32, u32) = split(beta);\n\
               let none;\n\
               if a == b { return beta; }\n\
               beta\n\
             }\n",
        );
        let binds = &f.fns[0].binds;
        assert_eq!(binds.len(), 3, "{binds:?}");
        assert!(binds[0].names.contains("beta"));
        assert!(binds[0].rhs.contains("policy") && binds[0].rhs.contains("threshold"));
        // The format! capture in the string literal taints the binding.
        assert!(binds[1].names.contains("msg"));
        assert!(binds[1].rhs.contains("beta"), "{:?}", binds[1].rhs);
        // Tuple pattern: both names bound; `a == b` never parses as a let.
        assert!(binds[2].names.contains("a") && binds[2].names.contains("b"));
        assert!(binds[2].rhs.contains("beta"));
    }

    #[test]
    fn records_fmt_sites_and_return_idents() {
        let f = items(
            "fn leak(withheld: &[u64], beta: f64) -> f64 {\n\
               println!(\"dropped {} at {beta}\", withheld.len());\n\
               if beta < 0.0 { return beta; }\n\
               beta * 2.0\n\
             }\n",
        );
        let fun = &f.fns[0];
        assert_eq!(fun.fmts.len(), 1);
        assert_eq!(fun.fmts[0].name, "println");
        assert!(fun.fmts[0].args.contains("withheld") && fun.fmts[0].args.contains("beta"));
        assert!(fun.ret_idents.contains("beta"));
    }

    #[test]
    fn records_per_argument_ident_sets_on_calls() {
        let f = items(
            "fn go(beta: f64, tag: &str) {\n\
               check(one(beta), tag, format!(\"b={beta}\"));\n\
             }\n",
        );
        let call = f.fns[0]
            .calls
            .iter()
            .find(|c| c.segs == ["check"])
            .expect("check call");
        assert_eq!(call.args.len(), 3, "{:?}", call.args);
        assert!(call.args[0].contains("beta") && call.args[0].contains("one"));
        assert!(call.args[1].contains("tag"));
        // Nested format! commas stay inside arg 2; its capture is visible.
        assert!(call.args[2].contains("beta"));
    }
}
