//! Item scanner: finds functions, impl owners, annotated params and
//! fields, and suppression comments in a lexed file.
//!
//! This is deliberately *not* a parser. It walks the significant-token
//! stream tracking delimiter depth, recognising exactly the shapes the
//! two analyses need: `fn` signatures with bodies, `impl` owners,
//! `struct` fields, and the annotation grammar (see DESIGN.md §10):
//!
//! * `// ct: secret` before a `fn` — everything the function returns is
//!   secret material (the function is a taint *source* for callers).
//! * `// ct: secret` before a parameter or struct field — that binding
//!   is a taint root inside the function / at every access site.
//! * `// ct-allow(<reason>)` on the finding's line or the line above —
//!   suppresses constant-time findings there; the reason is mandatory.
//! * `// panic-allow(<reason>)` — same, for panic-path findings; this is
//!   the "documented-invariant `expect`" carrier: the reason states the
//!   invariant that makes the panic unreachable.
//!
//! Doc comments (`///`, `//!`) never carry annotations, so prose quoting
//! the grammar cannot activate it. `#[cfg(test)]` modules, `#[test]`
//! functions, and `macro_rules!` definitions are skipped entirely.

use crate::lexer::{lex, Token, TokenKind};
use std::collections::{HashMap, HashSet};

/// One analyzed source file, with its token stream and the index of
/// significant (non-whitespace, non-comment) tokens.
pub struct SourceFile {
    pub crate_name: String,
    /// Workspace-relative path, `/`-separated.
    pub rel_path: String,
    pub src: String,
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of significant tokens.
    pub sig: Vec<usize>,
    /// `ct-allow` reasons by line.
    pub ct_allow: HashMap<u32, String>,
    /// `panic-allow` reasons by line.
    pub panic_allow: HashMap<u32, String>,
}

impl SourceFile {
    /// Lexes `src` and collects the suppression maps.
    pub fn new(crate_name: &str, rel_path: &str, src: String) -> Self {
        let tokens = lex(&src);
        let sig = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                !matches!(
                    t.kind,
                    TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
                )
            })
            .map(|(i, _)| i)
            .collect();
        let mut ct_allow = HashMap::new();
        let mut panic_allow = HashMap::new();
        for t in &tokens {
            if let Some(body) = comment_body(t, &src) {
                if let Some(reason) = parse_allow(body, "ct-allow") {
                    ct_allow.insert(t.line, reason);
                }
                if let Some(reason) = parse_allow(body, "panic-allow") {
                    panic_allow.insert(t.line, reason);
                }
            }
        }
        Self {
            crate_name: crate_name.to_string(),
            rel_path: rel_path.to_string(),
            src,
            tokens,
            sig,
            ct_allow,
            panic_allow,
        }
    }

    /// Text of the `i`-th *significant* token.
    pub fn text(&self, i: usize) -> &str {
        self.tokens[self.sig[i]].text(&self.src)
    }

    /// Kind of the `i`-th significant token.
    pub fn kind(&self, i: usize) -> TokenKind {
        self.tokens[self.sig[i]].kind
    }

    /// Line of the `i`-th significant token.
    pub fn line(&self, i: usize) -> u32 {
        self.tokens[self.sig[i]].line
    }

    /// Number of significant tokens.
    pub fn len(&self) -> usize {
        self.sig.len()
    }

    /// Whether the file has no significant tokens.
    pub fn is_empty(&self) -> bool {
        self.sig.is_empty()
    }
}

/// The body of a *non-doc* comment token (`// …` / `/* … */`), or `None`.
fn comment_body<'s>(t: &Token, src: &'s str) -> Option<&'s str> {
    let text = t.text(src);
    match t.kind {
        TokenKind::LineComment => {
            let rest = text.strip_prefix("//")?;
            // `///` and `//!` are docs; they never carry annotations.
            if rest.starts_with('/') || rest.starts_with('!') {
                None
            } else {
                Some(rest)
            }
        }
        TokenKind::BlockComment => {
            let rest = text.strip_prefix("/*")?;
            if rest.starts_with('*') || rest.starts_with('!') {
                return None;
            }
            Some(rest.strip_suffix("*/").unwrap_or(rest))
        }
        _ => None,
    }
}

/// Whether a comment token is exactly the `ct: secret` annotation.
fn comment_is_secret(t: &Token, src: &str) -> bool {
    comment_body(t, src).is_some_and(|b| b.trim() == "ct: secret")
}

/// Parses `<kind>(<reason>)` out of a comment body; the reason must be
/// non-empty (a suppression without a reviewable reason is ignored).
fn parse_allow(body: &str, kind: &str) -> Option<String> {
    let at = body.find(kind)?;
    let rest = body[at + kind.len()..].trim_start();
    let inner = rest.strip_prefix('(')?;
    let close = inner.rfind(')')?;
    let reason = inner[..close].trim();
    if reason.is_empty() {
        None
    } else {
        Some(reason.to_string())
    }
}

/// One function parameter.
#[derive(Debug, Clone)]
pub struct Param {
    pub name: String,
    /// Flattened type text (tokens joined with spaces); empty for
    /// un-typed `self`.
    pub ty: String,
    /// Carries a `// ct: secret` annotation.
    pub secret: bool,
}

/// One scanned function with a body.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Index into the workspace's file list.
    pub file: usize,
    pub name: String,
    /// `impl` type the method lives in, if any.
    pub owner: Option<String>,
    pub line: u32,
    pub params: Vec<Param>,
    /// Flattened declared return type (tokens joined with spaces);
    /// empty when the fn returns `()` implicitly.
    pub ret_ty: String,
    /// Fn-level `// ct: secret`: the result is secret material.
    pub secret_source: bool,
    /// The preceding doc comment block contains a `# Panics` section.
    pub doc_panics: bool,
    /// Significant-token range of the body: `(open_brace, close_brace)`
    /// indices, exclusive of the braces themselves when iterated as
    /// `open + 1 .. close`.
    pub body: (usize, usize),
}

/// Scan result for one file.
pub struct FileScan {
    pub fns: Vec<FnItem>,
    /// Field names annotated `// ct: secret` (struct-qualified names are
    /// not resolvable lexically, so field names are global).
    pub secret_fields: HashSet<String>,
}

/// Scans `file` (index `file_idx` in the workspace) for items.
pub fn scan_file(file: &SourceFile, file_idx: usize) -> FileScan {
    Scanner {
        f: file,
        file_idx,
        out: FileScan {
            fns: Vec::new(),
            secret_fields: HashSet::new(),
        },
    }
    .run()
}

struct Scanner<'f> {
    f: &'f SourceFile,
    file_idx: usize,
    out: FileScan,
}

impl<'f> Scanner<'f> {
    fn run(mut self) -> FileScan {
        // Owners: (brace-depth the impl body opened at, type name).
        let mut owners: Vec<(usize, String)> = Vec::new();
        let mut depth = 0usize;
        let mut pending_cfg_test = false;
        let mut pending_test_fn = false;
        let mut i = 0usize;
        while i < self.f.len() {
            let text = self.f.text(i);
            match text {
                "{" => {
                    depth += 1;
                    i += 1;
                }
                "}" => {
                    depth = depth.saturating_sub(1);
                    if owners.last().is_some_and(|(d, _)| *d == depth) {
                        owners.pop();
                    }
                    pending_cfg_test = false;
                    pending_test_fn = false;
                    i += 1;
                }
                ";" => {
                    pending_cfg_test = false;
                    pending_test_fn = false;
                    i += 1;
                }
                "#" => {
                    let (next, attr) = self.attribute(i);
                    match attr.as_str() {
                        "cfg ( test )" => pending_cfg_test = true,
                        "test" => pending_test_fn = true,
                        _ => {}
                    }
                    i = next;
                }
                "macro_rules" => {
                    // `macro_rules ! name <delim> … <close>` — token soup
                    // with meta-variables; never analyzed.
                    i += 1;
                    while i < self.f.len() && !matches!(self.f.text(i), "{" | "(" | "[") {
                        i += 1;
                    }
                    i = self.match_delim(i);
                }
                "mod" if pending_cfg_test => {
                    // `#[cfg(test)] mod name { … }`: skip the whole body.
                    pending_cfg_test = false;
                    i += 1;
                    while i < self.f.len() && self.f.text(i) != "{" && self.f.text(i) != ";" {
                        i += 1;
                    }
                    i = self.match_delim(i);
                }
                "impl" => {
                    if pending_cfg_test {
                        // `#[cfg(test)] impl …`: skip like a test module.
                        pending_cfg_test = false;
                        while i < self.f.len() && self.f.text(i) != "{" {
                            i += 1;
                        }
                        i = self.match_delim(i);
                        continue;
                    }
                    let (body_open, owner) = self.impl_header(i);
                    if let Some(name) = owner {
                        owners.push((depth, name));
                    }
                    // Enter the impl body (depth bookkeeping happens when
                    // the `{` token is revisited).
                    i = body_open;
                }
                "fn" => {
                    let skip_body = pending_test_fn || pending_cfg_test;
                    pending_test_fn = false;
                    let owner = owners.last().map(|(_, n)| n.clone());
                    i = self.function(i, owner, skip_body);
                }
                "struct" => {
                    i = self.structure(i);
                }
                _ => i += 1,
            }
        }
        self.out
    }

    /// Skips a balanced `{…}` / `(…)` / `[…]` starting at `open`;
    /// returns the index after the closing delimiter. If `open` is not a
    /// delimiter, returns `open + 1`.
    fn match_delim(&self, open: usize) -> usize {
        let (o, c) = match self.f.text(open) {
            "{" => ("{", "}"),
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            _ => return open + 1,
        };
        let mut depth = 0usize;
        let mut i = open;
        while i < self.f.len() {
            let t = self.f.text(i);
            if t == o {
                depth += 1;
            } else if t == c {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
        i
    }

    /// Parses `# [ … ]` at `i`; returns (index after `]`, flattened
    /// attribute text).
    fn attribute(&self, i: usize) -> (usize, String) {
        if i + 1 >= self.f.len() || self.f.text(i + 1) != "[" {
            return (i + 1, String::new());
        }
        let end = self.match_delim(i + 1);
        let attr: Vec<&str> = (i + 2..end.saturating_sub(1))
            .map(|j| self.f.text(j))
            .collect();
        (end, attr.join(" "))
    }

    /// Parses an `impl` header starting at the `impl` token; returns
    /// (index of the body `{` or terminating `;`, owner type name).
    ///
    /// `impl<T> Foo<T> {…}` → `Foo`; `impl Trait for Foo {…}` → `Foo`.
    fn impl_header(&self, impl_idx: usize) -> (usize, Option<String>) {
        let mut i = impl_idx + 1;
        // Skip impl generics.
        if i < self.f.len() && self.f.text(i) == "<" {
            i = self.match_angle(i);
        }
        let mut owner: Option<String> = None;
        let mut after_for = false;
        while i < self.f.len() {
            let t = self.f.text(i);
            match t {
                "{" | ";" => break,
                "for" => {
                    after_for = true;
                    owner = None;
                    i += 1;
                }
                "<" => i = self.match_angle(i),
                "where" => {
                    // Owner is settled before the where clause.
                    while i < self.f.len() && self.f.text(i) != "{" && self.f.text(i) != ";" {
                        i += 1;
                    }
                    break;
                }
                _ => {
                    if self.f.kind(i) == TokenKind::Ident
                        && (owner.is_none() || !after_for)
                        && t != "dyn"
                        && t != "mut"
                        && t != "const"
                    {
                        // Keep the *last* path segment seen before `{`
                        // (handles `crate::poly::Poly`), restarting after
                        // `for`.
                        owner = Some(t.to_string());
                    }
                    i += 1;
                }
            }
        }
        (i, owner)
    }

    /// Skips `<…>` with angle-bracket counting (shifts lex as two `>`s,
    /// `->`/`=>` as single tokens, so counting is reliable in type
    /// position).
    fn match_angle(&self, open: usize) -> usize {
        let mut depth = 0usize;
        let mut i = open;
        while i < self.f.len() {
            match self.f.text(i) {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                }
                // Angle brackets never contain these; bail out rather
                // than eat the file on a stray comparison operator.
                "{" | ";" => return i,
                _ => {}
            }
            i += 1;
        }
        i
    }

    /// Whether any non-doc `ct: secret` comment sits in the raw-token
    /// window backwards from significant token `i` to the nearest
    /// statement boundary (`;`, `{`, `}`) or window floor `floor_sig`.
    fn secret_annotation_before(&self, i: usize, floor_sig: Option<usize>) -> bool {
        let raw_end = self.f.sig[i];
        let raw_floor = floor_sig.map(|s| self.f.sig[s]).unwrap_or(0);
        for raw in (raw_floor..raw_end).rev() {
            let t = &self.f.tokens[raw];
            match t.kind {
                TokenKind::LineComment | TokenKind::BlockComment => {
                    if comment_is_secret(t, &self.f.src) {
                        return true;
                    }
                }
                TokenKind::Whitespace => {}
                _ => {
                    let text = t.text(&self.f.src);
                    if matches!(text, ";" | "{" | "}") {
                        return false;
                    }
                }
            }
        }
        false
    }

    /// Whether the doc block immediately above token `i` contains a
    /// `# Panics` section.
    fn doc_panics_before(&self, i: usize) -> bool {
        let raw_end = self.f.sig[i];
        for raw in (0..raw_end).rev() {
            let t = &self.f.tokens[raw];
            match t.kind {
                TokenKind::LineComment | TokenKind::BlockComment => {
                    if t.text(&self.f.src).contains("# Panics") {
                        return true;
                    }
                }
                TokenKind::Whitespace => {}
                _ => {
                    if matches!(t.text(&self.f.src), ";" | "{" | "}") {
                        return false;
                    }
                }
            }
        }
        false
    }

    /// Parses a `fn` item starting at the `fn` token; records it unless
    /// `skip_body`; returns the index to continue scanning from (the
    /// body's `{`, so nested items are found — or past it when skipped).
    fn function(&mut self, fn_idx: usize, owner: Option<String>, skip_body: bool) -> usize {
        let mut i = fn_idx + 1;
        if i >= self.f.len() || self.f.kind(i) != TokenKind::Ident {
            // `fn(u32) -> u32` pointer type, not an item.
            return i;
        }
        let name = self.f.text(i).to_string();
        let line = self.f.line(i);
        let secret_source = self.secret_annotation_before(fn_idx, None);
        let doc_panics = self.doc_panics_before(fn_idx);
        i += 1;
        if i < self.f.len() && self.f.text(i) == "<" {
            i = self.match_angle(i);
        }
        if i >= self.f.len() || self.f.text(i) != "(" {
            return i;
        }
        let params_end = self.match_delim(i);
        let params = self.params(i + 1, params_end - 1);
        i = params_end;
        // Return type.
        let mut ret_ty = String::new();
        if i < self.f.len() && self.f.text(i) == "->" {
            i += 1;
            let ret_start = i;
            while i < self.f.len() && !matches!(self.f.text(i), "{" | ";" | "where") {
                match self.f.text(i) {
                    "<" => i = self.match_angle(i),
                    // `-> [u32; N]` / `-> (A, B)`: the `;`/`,` inside the
                    // type must not end the signature scan.
                    "[" | "(" => i = self.match_delim(i),
                    _ => i += 1,
                }
            }
            ret_ty = (ret_start..i)
                .map(|j| self.f.text(j))
                .collect::<Vec<_>>()
                .join(" ");
        }
        if i < self.f.len() && self.f.text(i) == "where" {
            while i < self.f.len() && !matches!(self.f.text(i), "{" | ";") {
                i += 1;
            }
        }
        if i >= self.f.len() || self.f.text(i) != "{" {
            // Trait method declaration without body.
            return i + 1;
        }
        let body_end = self.match_delim(i);
        if skip_body {
            return body_end;
        }
        self.out.fns.push(FnItem {
            file: self.file_idx,
            name,
            owner,
            line,
            params,
            ret_ty,
            secret_source,
            doc_panics,
            body: (i, body_end - 1),
        });
        // Continue at the body's `{`, so the main loop counts it (its
        // `}` must not pop the enclosing `impl` owner) and scans nested
        // fns too.
        i
    }

    /// Parses a parameter list between significant indices
    /// `[start, end)` (exclusive of the parens).
    fn params(&mut self, start: usize, end: usize) -> Vec<Param> {
        let mut params = Vec::new();
        let mut i = start;
        let mut seg_start = start;
        let mut depth = 0usize;
        let mut flush = |s: usize, e: usize, this: &Self| {
            if e <= s {
                return;
            }
            // Annotation window: raw tokens from just before the segment
            // (the comma/paren) to the first significant token.
            let secret = this.secret_annotation_before(s, s.checked_sub(1));
            // First ident that is part of the pattern is the name; skip
            // `mut`/`ref`/`&`/lifetimes.
            let mut name = None;
            let mut colon = None;
            for j in s..e {
                let t = this.f.text(j);
                if colon.is_none() && t == ":" {
                    colon = Some(j);
                }
                if name.is_none()
                    && this.f.kind(j) == TokenKind::Ident
                    && !matches!(t, "mut" | "ref" | "dyn" | "impl")
                {
                    name = Some(t.to_string());
                }
            }
            let ty = match colon {
                Some(c) => (c + 1..e)
                    .map(|j| this.f.text(j))
                    .collect::<Vec<_>>()
                    .join(" "),
                None => String::new(),
            };
            if let Some(name) = name {
                params.push(Param { name, ty, secret });
            }
        };
        while i < end {
            match self.f.text(i) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth = depth.saturating_sub(1),
                "<" => {
                    i = self.match_angle(i);
                    continue;
                }
                "," if depth == 0 => {
                    flush(seg_start, i, self);
                    seg_start = i + 1;
                }
                _ => {}
            }
            i += 1;
        }
        flush(seg_start, end, self);
        params
    }

    /// Parses a `struct` item, recording annotated field names.
    fn structure(&mut self, struct_idx: usize) -> usize {
        let mut i = struct_idx + 1;
        if i >= self.f.len() || self.f.kind(i) != TokenKind::Ident {
            return i;
        }
        i += 1;
        if i < self.f.len() && self.f.text(i) == "<" {
            i = self.match_angle(i);
        }
        if i < self.f.len() && self.f.text(i) == "where" {
            while i < self.f.len() && !matches!(self.f.text(i), "{" | ";" | "(") {
                i += 1;
            }
        }
        if i >= self.f.len() {
            return i;
        }
        match self.f.text(i) {
            "{" => {
                let end = self.match_delim(i);
                // Walk fields at depth 1: `ident :` at field position.
                let mut j = i + 1;
                let mut depth = 1usize;
                let mut field_pos = true;
                while j < end - 1 {
                    let t = self.f.text(j);
                    match t {
                        "{" | "(" | "[" => depth += 1,
                        "}" | ")" | "]" => depth = depth.saturating_sub(1),
                        "<" => {
                            j = self.match_angle(j);
                            continue;
                        }
                        "," if depth == 1 => field_pos = true,
                        ":" if depth == 1 => field_pos = false,
                        _ => {
                            if field_pos
                                && depth == 1
                                && self.f.kind(j) == TokenKind::Ident
                                && !matches!(t, "pub" | "crate" | "in")
                                && j + 1 < end
                                && self.f.text(j + 1) == ":"
                                && self.secret_annotation_before(j, None)
                            {
                                self.out.secret_fields.insert(t.to_string());
                            }
                        }
                    }
                    j += 1;
                }
                end
            }
            // Tuple / unit structs carry no named fields.
            "(" => self.match_delim(i),
            _ => i + 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> FileScan {
        let f = SourceFile::new("t", "t/src/lib.rs", src.to_string());
        scan_file(&f, 0)
    }

    #[test]
    fn finds_fns_with_owners_params_and_bodies() {
        let s = scan(
            "impl<R: Reducer> Plan<R> {\n\
             pub fn forward_into(&self, data: &mut [u32]) -> Result<(), E> { data[0] = 1; Ok(()) }\n\
             }\n\
             fn free(x: u32) -> u32 { x }\n",
        );
        assert_eq!(s.fns.len(), 2);
        assert_eq!(s.fns[0].name, "forward_into");
        assert_eq!(s.fns[0].owner.as_deref(), Some("Plan"));
        assert_eq!(s.fns[0].params.len(), 2);
        assert_eq!(s.fns[0].params[0].name, "self");
        assert_eq!(s.fns[0].params[1].name, "data");
        assert!(s.fns[0].params[1].ty.contains("u32"));
        assert_eq!(s.fns[1].name, "free");
        assert!(s.fns[1].owner.is_none());
    }

    #[test]
    fn every_method_of_an_impl_keeps_its_owner() {
        let s = scan(
            "impl HashDrbg { fn new() {} fn refill(&mut self) { if x {} } fn fill(&self) {} }\n\
             fn free() {}",
        );
        let owners: Vec<_> = s.fns.iter().map(|f| f.owner.as_deref()).collect();
        let drbg = Some("HashDrbg");
        assert_eq!(owners, [drbg, drbg, drbg, None]);
    }

    #[test]
    fn trait_impl_owner_is_the_self_type() {
        let s = scan("impl Drop for SecretKey { fn drop(&mut self) { } }");
        assert_eq!(s.fns[0].owner.as_deref(), Some("SecretKey"));
    }

    #[test]
    fn annotations_attach_to_fn_param_and_field() {
        let src = "\
            // ct: secret\n\
            fn derive() -> [u8; 32] { [0; 32] }\n\
            fn open(/* ct: secret */ key: &[u8], msg: &[u8]) -> bool { true }\n\
            struct Drbg { // ct: secret\n seed: [u8; 32], counter: u64 }\n";
        let s = scan(src);
        assert!(s.fns[0].secret_source);
        assert!(!s.fns[1].secret_source);
        assert!(s.fns[1].params[0].secret);
        assert!(!s.fns[1].params[1].secret);
        assert!(s.secret_fields.contains("seed"));
        assert!(!s.secret_fields.contains("counter"));
    }

    #[test]
    fn doc_comments_do_not_activate_annotations() {
        let s = scan("/// ct: secret\nfn f() {}\n//! ct: secret\nfn g() {}");
        assert!(s.fns.iter().all(|f| !f.secret_source));
    }

    #[test]
    fn cfg_test_modules_and_test_fns_are_skipped() {
        let src = "\
            fn real() { }\n\
            #[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { assert!(true); }\n  fn helper() {}\n}\n\
            #[test]\nfn top_level_test() { }\n\
            fn real2() { }\n";
        let s = scan(src);
        let names: Vec<&str> = s.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["real", "real2"]);
    }

    #[test]
    fn macro_rules_bodies_are_invisible() {
        let src = "macro_rules! m { ($x:expr) => { if $x { panic!() } }; }\nfn f() {}";
        let s = scan(src);
        assert_eq!(s.fns.len(), 1);
        assert_eq!(s.fns[0].name, "f");
    }

    #[test]
    fn allow_comments_are_collected_with_reasons() {
        let f = SourceFile::new(
            "t",
            "t.rs",
            "// ct-allow(verdict is public)\nlet x = 1;\n// panic-allow(len checked above)\n// ct-allow()\n".into(),
        );
        assert_eq!(
            f.ct_allow.get(&1).map(String::as_str),
            Some("verdict is public")
        );
        assert_eq!(
            f.panic_allow.get(&3).map(String::as_str),
            Some("len checked above")
        );
        // Empty reason is not a suppression.
        assert!(!f.ct_allow.contains_key(&4));
    }

    #[test]
    fn doc_panics_flag_is_detected() {
        let s = scan("/// Does things.\n///\n/// # Panics\n///\n/// If x is 0.\nfn f(x: u32) { assert!(x > 0); }");
        assert!(s.fns[0].doc_panics);
    }

    #[test]
    fn nested_fns_are_scanned() {
        let s = scan("fn outer() { fn inner(y: u8) { } }");
        let names: Vec<&str> = s.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner"]);
    }
}
