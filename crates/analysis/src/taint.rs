//! The secret-taint constant-time lint.
//!
//! Taint roots (DESIGN.md §10):
//!
//! * parameters/fields annotated `// ct: secret`;
//! * parameters and `let` bindings whose declared type names a built-in
//!   secret type (`SecretKey`, `SharedSecret`);
//! * `self` inside `impl SecretKey` / `impl SharedSecret` /
//!   `impl HashDrbg` (the DRBG's seed material is secret);
//! * results of calls to fns annotated `// ct: secret` (the cross-crate
//!   edge: annotate the source once, every caller inherits the taint)
//!   and of associated calls on the secret types themselves.
//!
//! Intraprocedural propagation is a lexical fixpoint: `let` bindings and
//! assignments carry taint from their right-hand side, `for` patterns
//! from the iterated expression, `&mut` arguments from any tainted call
//! statement (out-parameter writes — the `_into` surfaces). Public-by-
//! convention accessors (`.len()`, `.params()`, …) *de-taint* a chain:
//! lengths and parameter sets are public structure per `rlwe_zq::ct`'s
//! documented conventions.
//!
//! Sinks: `if`/`while`/`match` conditions and scrutinees, slice index
//! expressions, short-circuit `&&`/`||` operands, `?` statements, and
//! early `return`s carrying a secret, plus cross-function sink edges
//! (a secret argument passed to a parameter the callee branches or
//! indexes on).

use crate::findings::{Finding, Rule};
use crate::lexer::TokenKind;
use crate::scan::{FnItem, SourceFile};
use std::collections::{HashMap, HashSet};

/// Types whose values are secret wherever they appear.
pub const SECRET_TYPES: &[&str] = &["SecretKey", "SharedSecret"];

/// `impl` owners whose `self` is secret material.
pub const SECRET_OWNERS: &[&str] = &["SecretKey", "SharedSecret", "HashDrbg"];

/// Methods/fields whose results are public by convention even on secret
/// receivers: slice lengths and parameter-set structure are public
/// everywhere in this workspace (wire formats and parameter sets fix
/// them), and the public half of a keypair is public by definition.
const DETAINT: &[&str] = &[
    "len",
    "is_empty",
    "capacity",
    "params",
    "set",
    "id",
    "q",
    "n",
    "coeff_bits",
    "modulus",
    "kind",
    "reducer_kind",
    "public",
    "public_key",
];

/// Workspace-wide call summaries feeding the cross-crate pass.
#[derive(Default)]
pub struct Summaries {
    /// Free-fn names where at least one definition is a secret source.
    free_secret: HashSet<String>,
    /// Method names → (secret definitions, total definitions): a method
    /// call taints only when *every* definition of that name is secret
    /// (name-based resolution must not let `PublicKey::to_bytes` inherit
    /// `SecretKey::to_bytes`'s taint).
    method_defs: HashMap<String, (usize, usize)>,
    /// `(owner, name)` pairs that are secret sources.
    owned_secret: HashSet<(String, String)>,
    /// Free-fn name → parameters (index, name) the body branches or
    /// indexes on.
    pub sinks: HashMap<String, Vec<(usize, String)>>,
}

impl Summaries {
    /// Builds return-taint summaries from the scanned functions. A fn is
    /// a secret source when annotated `// ct: secret` or when its
    /// declared return type names a secret type (`-> SharedSecret`,
    /// `-> Result<SecretKey, E>`, …). Deliberately *not* "any method of
    /// a secret impl": that poisons common names shared with std
    /// (`SharedSecret::as_bytes` would make every `str::as_bytes` call
    /// look secret), and a secret receiver is already tainted by type.
    pub fn build(fns: &[FnItem]) -> Self {
        let mut s = Summaries::default();
        for f in fns {
            let secret =
                f.secret_source || SECRET_TYPES.iter().any(|t| mentions_word(&f.ret_ty, t));
            match &f.owner {
                None => {
                    if secret {
                        s.free_secret.insert(f.name.clone());
                    }
                }
                Some(owner) => {
                    let e = s.method_defs.entry(f.name.clone()).or_insert((0, 0));
                    e.1 += 1;
                    if secret {
                        e.0 += 1;
                        s.owned_secret.insert((owner.clone(), f.name.clone()));
                    }
                }
            }
        }
        s
    }

    fn method_secret(&self, name: &str) -> bool {
        self.method_defs
            .get(name)
            .is_some_and(|(sec, tot)| *sec > 0 && sec == tot)
    }
}

/// Per-function result: findings plus the sink-parameter facts used by
/// the cross-function pass.
pub struct FnAnalysis {
    pub findings: Vec<Finding>,
    pub suppressed: usize,
    /// Parameters (index, name) this fn branches or indexes on.
    pub sink_params: Vec<(usize, String)>,
}

/// How much call knowledge the taint walk uses.
enum Mode<'a> {
    /// First pass: no sink map yet; emit intraprocedural findings.
    Intra,
    /// Second pass: emit only [`Rule::CtCallSink`] findings.
    CallSinks(&'a HashMap<String, Vec<(usize, String)>>),
}

/// Runs the constant-time lint over one function. With `sinks: None`
/// this is the intraprocedural pass (emits everything but
/// [`Rule::CtCallSink`] and computes sink-parameter facts); with
/// `sinks: Some(map)` it is the cross-function pass (emits only
/// [`Rule::CtCallSink`]).
pub fn analyze_fn_with_fields(
    file: &SourceFile,
    f: &FnItem,
    summaries: &Summaries,
    secret_fields: &HashSet<String>,
    sinks: Option<&HashMap<String, Vec<(usize, String)>>>,
) -> FnAnalysis {
    let mode = match sinks {
        None => Mode::Intra,
        Some(s) => Mode::CallSinks(s),
    };
    Pass {
        file,
        f,
        summaries,
        tainted: HashSet::new(),
        secret_fields,
        out: FnAnalysis {
            findings: Vec::new(),
            suppressed: 0,
            sink_params: Vec::new(),
        },
    }
    .go(mode)
}

struct Pass<'a> {
    file: &'a SourceFile,
    f: &'a FnItem,
    summaries: &'a Summaries,
    tainted: HashSet<String>,
    secret_fields: &'a HashSet<String>,
    out: FnAnalysis,
}

const KEYWORDS: &[&str] = &[
    "if", "else", "match", "while", "for", "let", "fn", "return", "mut", "ref", "pub", "use",
    "mod", "impl", "struct", "enum", "trait", "where", "as", "in", "move", "dyn", "const",
    "static", "break", "continue", "loop", "crate", "super", "true", "false",
];

impl<'a> Pass<'a> {
    fn go(mut self, mode: Mode) -> FnAnalysis {
        self.seed_roots();
        // Lexical dataflow to a fixpoint (bounded: each iteration only
        // ever adds identifiers, and the set is finite).
        for _ in 0..10 {
            if !self.propagate() {
                break;
            }
        }
        match mode {
            Mode::Intra => self.emit_findings(),
            Mode::CallSinks(sinks) => self.emit_call_sink_findings(sinks),
        }
        self.out
    }

    fn seed_roots(&mut self) {
        for p in &self.f.params {
            let type_secret = SECRET_TYPES.iter().any(|t| mentions_word(&p.ty, t));
            if p.secret || type_secret {
                self.tainted.insert(p.name.clone());
            }
        }
        if self
            .f
            .owner
            .as_deref()
            .is_some_and(|o| SECRET_OWNERS.contains(&o))
        {
            self.tainted.insert("self".to_string());
        }
    }

    // ---- token helpers ------------------------------------------------

    fn body_range(&self) -> (usize, usize) {
        (self.f.body.0 + 1, self.f.body.1)
    }

    fn text(&self, i: usize) -> &str {
        self.file.text(i)
    }

    fn is_ident(&self, i: usize) -> bool {
        self.file.kind(i) == TokenKind::Ident
    }

    /// Index after a balanced run starting at an opening delimiter.
    fn skip_delim(&self, open: usize, end: usize) -> usize {
        let (o, c) = match self.text(open) {
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            "{" => ("{", "}"),
            _ => return open + 1,
        };
        let mut depth = 0usize;
        let mut i = open;
        while i < end {
            let t = self.text(i);
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
        end
    }

    /// Statement-window boundaries for position `i`: the significant
    /// range between the previous and next `;`/`{`/`}` at any depth.
    fn stmt_window(&self, i: usize) -> (usize, usize) {
        let (lo, hi) = self.body_range();
        let mut start = lo;
        for j in (lo..i).rev() {
            if matches!(self.text(j), ";" | "{" | "}") {
                start = j + 1;
                break;
            }
        }
        let mut end = hi;
        for j in i..hi {
            if matches!(self.text(j), ";" | "{" | "}") {
                end = j;
                break;
            }
        }
        (start, end)
    }

    // ---- taint queries ------------------------------------------------

    /// Whether the atom starting at ident `i` is secret, honouring the
    /// de-taint chain rule. Returns the atom text when tainted.
    fn atom_taint(&self, i: usize, end: usize, full: bool) -> Option<String> {
        let t = self.text(i);
        if !self.is_ident(i) || KEYWORDS.contains(&t) {
            return None;
        }
        let prev_dot = i > 0 && self.text(i - 1) == ".";
        let next = |k: usize| -> Option<&str> {
            if i + k < end {
                Some(self.text(i + k))
            } else {
                None
            }
        };
        // Field access `.field` on anything, when the field is annotated.
        if prev_dot && self.secret_fields.contains(t) {
            return Some(format!(".{t}"));
        }
        if !prev_dot {
            if let Some((last, path)) = self.tainted_path(i, end) {
                // De-taint chain: `secret.len()` etc. is public structure.
                if last + 2 < end
                    && self.text(last + 1) == "."
                    && DETAINT.contains(&self.text(last + 2))
                {
                    return None;
                }
                return Some(path);
            }
        }
        if !full {
            return None;
        }
        // Type mention: `SecretKey::from_bytes(…)`, `SharedSecret { … }`.
        if SECRET_TYPES.contains(&t) || SECRET_OWNERS.contains(&t) {
            // Only as a path/constructor head, not arbitrary prose idents
            // (those would not be Idents in expression position anyway).
            if next(1) == Some("::") || next(1) == Some("{") {
                return Some(t.to_string());
            }
        }
        // Call summaries.
        if next(1) == Some("(") {
            if prev_dot {
                if self.summaries.method_secret(t) {
                    return Some(format!(".{t}()"));
                }
            } else {
                let after_path = i >= 2 && self.text(i - 1) == "::" && self.is_ident(i - 2);
                if after_path {
                    let owner = self.text(i - 2).to_string();
                    if self
                        .summaries
                        .owned_secret
                        .contains(&(owner.clone(), t.to_string()))
                    {
                        return Some(format!("{owner}::{t}()"));
                    }
                } else if self.summaries.free_secret.contains(t) {
                    return Some(format!("{t}()"));
                }
            }
        }
        None
    }

    /// First tainted atom in `[start, end)`. `full` enables call/type
    /// taint; direct mode (for `?`/`return`) sees only tainted idents
    /// and secret fields.
    fn window_taint(&self, start: usize, end: usize, full: bool) -> Option<(String, u32)> {
        let mut i = start;
        while i < end {
            let t = self.text(i);
            // `debug_assert…!(…)` bodies are compiled out of release
            // builds; the masked kernels use them as bound audits.
            if t.starts_with("debug_assert") && i + 1 < end && self.text(i + 1) == "!" {
                i = self.skip_delim(i + 2, end);
                continue;
            }
            if let Some(atom) = self.atom_taint(i, end, full) {
                return Some((atom, self.file.line(i)));
            }
            i += 1;
        }
        None
    }

    // ---- propagation --------------------------------------------------

    /// The field token after `last` in a place `a.b.c…`, if the place
    /// goes on. A method name ends it: `a.b.get()` yields a value, and
    /// the place it reads or writes through is its receiver `a.b`.
    fn next_field(&self, last: usize, end: usize) -> Option<usize> {
        let f = last + 2;
        (f < end
            && self.text(last + 1) == "."
            && self.is_ident(f)
            && !(f + 1 < end && matches!(self.text(f + 1), "(" | "::")))
        .then_some(f)
    }

    /// The shortest tainted prefix of the place rooted at ident `i`: the
    /// root name itself, or a field path an out-parameter tainted.
    /// Returns the prefix's last token and its text.
    fn tainted_path(&self, i: usize, end: usize) -> Option<(usize, String)> {
        let mut path = self.text(i).to_string();
        let mut last = i;
        loop {
            if self.tainted.contains(&path) {
                return Some((last, path));
            }
            last = self.next_field(last, end)?;
            path.push('.');
            path.push_str(self.text(last));
        }
    }

    /// The place an `&mut` argument rooted at ident `i` writes through:
    /// `a` for `&mut a` or `&mut a[k]`, `a.b` for `&mut a.b` — a field
    /// path, never its root, so `&mut self.scratch` leaves the rest of
    /// `self` public.
    fn place_path(&self, i: usize, end: usize) -> String {
        let mut path = self.text(i).to_string();
        let mut last = i;
        while let Some(f) = self.next_field(last, end) {
            last = f;
            path.push('.');
            path.push_str(self.text(last));
        }
        path
    }

    /// One propagation sweep; returns whether the taint set grew.
    fn propagate(&mut self) -> bool {
        let (lo, hi) = self.body_range();
        let before = self.tainted.len();
        let mut i = lo;
        while i < hi {
            match self.text(i) {
                "let" => i = self.handle_let(i, hi),
                "for" => i = self.handle_for(i, hi),
                _ => {
                    if self.is_assignment_eq(i) {
                        self.handle_assignment(i);
                    }
                    i += 1;
                }
            }
        }
        // Out-parameter writes: any statement window that carries taint
        // taints the place each `&mut` argument names (`decrypt_into(&sk,
        // …, &mut msg)` makes `msg` secret; `&mut self.scratch` makes
        // `self.scratch` secret, not the rest of `self`).
        let mut j = lo;
        while j < hi {
            let (s, e) = self.stmt_window(j);
            if self.window_taint(s, e, true).is_some() {
                let mut k = s;
                while k + 2 < e {
                    if self.text(k) == "&"
                        && self.text(k + 1) == "mut"
                        && self.is_ident(k + 2)
                        && !KEYWORDS.contains(&self.text(k + 2))
                    {
                        let place = self.place_path(k + 2, e);
                        self.tainted.insert(place);
                    }
                    k += 1;
                }
            }
            j = e.max(j + 1) + 1;
        }
        self.tainted.len() > before
    }

    /// `=` that is an assignment/binding, not part of `==`/`<=`/`…`.
    fn is_assignment_eq(&self, i: usize) -> bool {
        if self.text(i) != "=" {
            return false;
        }
        let (lo, hi) = self.body_range();
        if i > lo && matches!(self.text(i - 1), "=" | "<" | ">" | "!") {
            return false;
        }
        if i + 1 < hi && self.text(i + 1) == "=" {
            return false;
        }
        true
    }

    /// RHS window: from `from` to the statement's end.
    fn rhs_end(&self, from: usize) -> usize {
        let (_, hi) = self.body_range();
        let mut depth = 0usize;
        let mut i = from;
        while i < hi {
            match self.text(i) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "}" => {
                    if depth == 0 {
                        return i;
                    }
                    depth -= 1;
                }
                ";" if depth == 0 => return i,
                _ => {}
            }
            i += 1;
        }
        hi
    }

    /// Pattern binding names: plain idents that are not constructors
    /// (`Some(x)` binds `x`, not `Some`) and not keywords.
    fn pattern_names(&self, start: usize, end: usize) -> Vec<String> {
        let mut names = Vec::new();
        for j in start..end {
            if !self.is_ident(j) {
                continue;
            }
            let t = self.text(j);
            if KEYWORDS.contains(&t) || t == "self" {
                continue;
            }
            // Constructor heads are followed by `(`/`{`/`::`.
            if j + 1 < end && matches!(self.text(j + 1), "(" | "{" | "::") {
                continue;
            }
            names.push(t.to_string());
        }
        names
    }

    fn handle_let(&mut self, let_idx: usize, hi: usize) -> usize {
        // `let pat[: ty] = rhs ;` — `else` blocks ride on rhs_end.
        let mut eq = None;
        let mut colon = None;
        let mut depth = 0usize;
        let mut i = let_idx + 1;
        while i < hi {
            let t = self.text(i);
            match t {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    if t == "}" && depth == 0 {
                        break;
                    }
                    depth = depth.saturating_sub(1);
                }
                ";" if depth == 0 => break,
                ":" if depth == 0 && colon.is_none() => colon = Some(i),
                "=" if depth == 0 && self.is_assignment_eq(i) => {
                    eq = Some(i);
                    break;
                }
                "<" if depth == 0 && colon.is_some() => {
                    // Type generics; skip so `,` inside them is inert.
                }
                _ => {}
            }
            i += 1;
        }
        let Some(eq) = eq else { return let_idx + 1 };
        let pat_end = colon.unwrap_or(eq);
        let names = self.pattern_names(let_idx + 1, pat_end);
        let rhs_end = self.rhs_end(eq + 1);
        // Declared-type root: `let sk: SecretKey = …`.
        let ty_secret = colon.is_some_and(|c| {
            (c + 1..eq).any(|j| self.is_ident(j) && SECRET_TYPES.contains(&self.text(j)))
        });
        let rhs_secret = ty_secret || self.window_taint(eq + 1, rhs_end, true).is_some();
        for n in names {
            if rhs_secret {
                self.tainted.insert(n);
            } else {
                // Shadowing with a public value un-taints the name.
                self.tainted.remove(&n);
            }
        }
        eq + 1
    }

    fn handle_for(&mut self, for_idx: usize, hi: usize) -> usize {
        // `for pat in expr {`
        let mut in_idx = None;
        for j in for_idx + 1..hi.min(for_idx + 40) {
            if self.text(j) == "in" {
                in_idx = Some(j);
                break;
            }
            if self.text(j) == "{" {
                break;
            }
        }
        let Some(in_idx) = in_idx else {
            return for_idx + 1;
        };
        let mut end = in_idx + 1;
        let mut depth = 0usize;
        while end < hi {
            match self.text(end) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "{" if depth == 0 => break,
                _ => {}
            }
            end += 1;
        }
        if self.window_taint(in_idx + 1, end, true).is_some() {
            for n in self.pattern_names(for_idx + 1, in_idx) {
                self.tainted.insert(n);
            }
        }
        in_idx + 1
    }

    fn handle_assignment(&mut self, eq_idx: usize) {
        // Simple-name assignment only: `name = rhs` / `name op= rhs`.
        let (lo, _) = self.body_range();
        if eq_idx <= lo {
            return;
        }
        let mut lhs = eq_idx - 1;
        // Compound assignment: `name += rhs` lexes as `name` `+` `=`.
        if matches!(
            self.text(lhs),
            "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^"
        ) && lhs > lo
        {
            lhs -= 1;
        }
        if !self.is_ident(lhs) || KEYWORDS.contains(&self.text(lhs)) {
            return;
        }
        // A statement-initial bare name (not a field/index lvalue).
        if lhs > lo && matches!(self.text(lhs - 1), "." | "]" | "let") {
            return;
        }
        let name = self.text(lhs).to_string();
        let rhs_end = self.rhs_end(eq_idx + 1);
        if self.window_taint(eq_idx + 1, rhs_end, true).is_some() {
            self.tainted.insert(name);
        }
    }

    // ---- findings -----------------------------------------------------

    fn push(&mut self, rule: Rule, line: u32, detail: String) {
        // Suppression: `ct-allow(reason)` on the finding's line or the
        // line above.
        let allowed = self.file.ct_allow.contains_key(&line)
            || self.file.ct_allow.contains_key(&line.saturating_sub(1));
        if allowed {
            self.out.suppressed += 1;
            return;
        }
        self.out.findings.push(Finding {
            rule,
            file: self.file.rel_path.clone(),
            function: qualified(self.f),
            line,
            detail,
        });
    }

    /// Condition window: after `if`/`while` (and optional `let pat =`)
    /// up to the opening `{`.
    fn condition_window(&self, kw: usize, hi: usize) -> (usize, usize) {
        let mut start = kw + 1;
        if start < hi && self.text(start) == "let" {
            // `if let pat = expr {`: the expression starts after `=`.
            let mut j = start + 1;
            let mut depth = 0usize;
            while j < hi {
                match self.text(j) {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth = depth.saturating_sub(1),
                    "=" if depth == 0 && self.is_assignment_eq(j) => {
                        start = j + 1;
                        break;
                    }
                    "{" if depth == 0 => return (start, j),
                    _ => {}
                }
                j += 1;
            }
        }
        let mut end = start;
        let mut depth = 0usize;
        while end < hi {
            match self.text(end) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "{" if depth == 0 => break,
                ";" if depth == 0 => break,
                _ => {}
            }
            end += 1;
        }
        (start, end)
    }

    fn emit_findings(&mut self) {
        let (lo, hi) = self.body_range();
        let mut flagged_ranges: Vec<(usize, usize)> = Vec::new();
        let mut sink_names: Vec<String> = Vec::new();
        let mut depth = 0usize;
        let mut i = lo;
        while i < hi {
            let t = self.text(i).to_string();
            match t.as_str() {
                "{" => depth += 1,
                "}" => depth = depth.saturating_sub(1),
                "if" | "while" | "match" => {
                    let (s, e) = self.condition_window(i, hi);
                    // `if let` / `while let` bindings were handled by the
                    // propagation pass; here only the sink matters.
                    if let Some((atom, _)) = self.window_taint(s, e, true) {
                        let line = self.file.line(i);
                        self.push(
                            Rule::CtBranch,
                            line,
                            format!("{t} on secret-derived `{atom}`"),
                        );
                        flagged_ranges.push((s, e));
                    }
                    self.collect_param_sinks(s, e, &mut sink_names);
                    i = e;
                    continue;
                }
                "&&" | "||" => {
                    let binary = i > lo
                        && (matches!(self.file.kind(i - 1), TokenKind::Ident | TokenKind::Number)
                            || matches!(self.text(i - 1), ")" | "]"));
                    if binary && !flagged_ranges.iter().any(|&(s, e)| i >= s && i < e) {
                        let (s, e) = self.stmt_window(i);
                        if let Some((atom, _)) = self.window_taint(s, e, true) {
                            let line = self.file.line(i);
                            self.push(
                                Rule::CtShortCircuit,
                                line,
                                format!("`{t}` with secret-derived `{atom}`"),
                            );
                            flagged_ranges.push((s, e));
                        }
                    }
                }
                "[" => {
                    let indexing = i > lo
                        && ((self.is_ident(i - 1) && !KEYWORDS.contains(&self.text(i - 1)))
                            || matches!(self.text(i - 1), ")" | "]"));
                    if indexing {
                        let close = self.skip_delim(i, hi);
                        if let Some((atom, _)) = self.window_taint(i + 1, close - 1, true) {
                            let line = self.file.line(i);
                            self.push(
                                Rule::CtIndex,
                                line,
                                format!("index by secret-derived `{atom}`"),
                            );
                        }
                        self.collect_param_sinks(i + 1, close - 1, &mut sink_names);
                        i = close;
                        continue;
                    }
                }
                "?" => {
                    let (s, _) = self.stmt_window(i);
                    if let Some((atom, _)) = self.window_taint(s, i, false) {
                        let line = self.file.line(i);
                        self.push(
                            Rule::CtTry,
                            line,
                            format!("`?` early-return in statement carrying `{atom}`"),
                        );
                    }
                }
                // Depth ≥ 1 relative to the body means the return is
                // inside some nested block — an *early* return.
                "return" if depth >= 1 => {
                    let end = self.rhs_end(i + 1);
                    if let Some((atom, _)) = self.window_taint(i + 1, end, false) {
                        let line = self.file.line(i);
                        self.push(
                            Rule::CtReturn,
                            line,
                            format!("early return of secret-derived `{atom}`"),
                        );
                    }
                }
                _ => {}
            }
            i += 1;
        }
        // Sink-param facts for the cross-function pass.
        let mut seen = HashSet::new();
        for (idx, p) in self.f.params.iter().enumerate() {
            if sink_names.iter().any(|n| n == &p.name) && seen.insert(p.name.clone()) {
                self.out.sink_params.push((idx, p.name.clone()));
            }
        }
    }

    /// Records parameter names mentioned (un-detainted) in a sink window.
    fn collect_param_sinks(&self, start: usize, end: usize, out: &mut Vec<String>) {
        for j in start..end {
            if !self.is_ident(j) {
                continue;
            }
            let t = self.text(j);
            if self.f.params.iter().all(|p| p.name != t) {
                continue;
            }
            if j > start && self.text(j - 1) == "." {
                continue;
            }
            // De-taint chain applies to sinks too: `buf.len()` in a
            // condition is public structure.
            if j + 2 < end && self.text(j + 1) == "." && DETAINT.contains(&self.text(j + 2)) {
                continue;
            }
            out.push(t.to_string());
        }
    }

    fn emit_call_sink_findings(&mut self, sinks: &HashMap<String, Vec<(usize, String)>>) {
        let (lo, hi) = self.body_range();
        let mut i = lo;
        while i < hi {
            if self.is_ident(i)
                && i + 1 < hi
                && self.text(i + 1) == "("
                && (i == lo || self.text(i - 1) != ".")
                && !KEYWORDS.contains(&self.text(i))
            {
                if let Some(sink_params) = sinks.get(self.text(i)) {
                    let callee = self.text(i).to_string();
                    let close = self.skip_delim(i + 1, hi);
                    let args = self.split_args(i + 2, close - 1);
                    for (idx, pname) in sink_params {
                        if let Some(&(s, e)) = args.get(*idx) {
                            if let Some((atom, _)) = self.window_taint(s, e, true) {
                                let line = self.file.line(i);
                                self.push(
                                    Rule::CtCallSink,
                                    line,
                                    format!(
                                        "secret-derived `{atom}` flows into `{callee}`'s `{pname}`, which it branches/indexes on"
                                    ),
                                );
                            }
                        }
                    }
                    i = close;
                    continue;
                }
            }
            i += 1;
        }
    }

    /// Top-level comma split of an argument window.
    fn split_args(&self, start: usize, end: usize) -> Vec<(usize, usize)> {
        let mut args = Vec::new();
        let mut depth = 0usize;
        let mut seg = start;
        let mut i = start;
        while i < end {
            match self.text(i) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth = depth.saturating_sub(1),
                "<" => {
                    // Generic args in turbofish; comparisons are rare in
                    // argument position and only widen the segment.
                }
                "," if depth == 0 => {
                    args.push((seg, i));
                    seg = i + 1;
                }
                _ => {}
            }
            i += 1;
        }
        if seg < end {
            args.push((seg, end));
        }
        args
    }
}

/// `Owner::name` for methods, `name` for free fns.
pub fn qualified(f: &FnItem) -> String {
    match &f.owner {
        Some(o) => format!("{o}::{}", f.name),
        None => f.name.clone(),
    }
}

/// Word-boundary containment: `mentions_word("&mut SecretKey", "SecretKey")`.
fn mentions_word(hay: &str, word: &str) -> bool {
    let bytes = hay.as_bytes();
    let mut from = 0;
    while let Some(at) = hay[from..].find(word) {
        let s = from + at;
        let e = s + word.len();
        let pre_ok = s == 0 || !(bytes[s - 1].is_ascii_alphanumeric() || bytes[s - 1] == b'_');
        let post_ok = e == hay.len() || !(bytes[e].is_ascii_alphanumeric() || bytes[e] == b'_');
        if pre_ok && post_ok {
            return true;
        }
        from = e;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{scan_file, SourceFile};

    fn analyze(src: &str) -> Vec<Finding> {
        let file = SourceFile::new("t", "t/src/lib.rs", src.to_string());
        let scanned = scan_file(&file, 0);
        let summaries = Summaries::build(&scanned.fns);
        let mut all = Vec::new();
        for f in &scanned.fns {
            all.extend(
                analyze_fn_with_fields(&file, f, &summaries, &scanned.secret_fields, None).findings,
            );
        }
        // Cross-function pass.
        let mut sinks = HashMap::new();
        for f in &scanned.fns {
            if f.owner.is_none() {
                let a = analyze_fn_with_fields(&file, f, &summaries, &scanned.secret_fields, None);
                if !a.sink_params.is_empty() {
                    sinks.insert(f.name.clone(), a.sink_params);
                }
            }
        }
        for f in &scanned.fns {
            all.extend(
                analyze_fn_with_fields(&file, f, &summaries, &scanned.secret_fields, Some(&sinks))
                    .findings,
            );
        }
        all
    }

    fn rules(findings: &[Finding]) -> Vec<Rule> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn branch_on_annotated_param_is_flagged() {
        let f = analyze("fn f(/* ct: secret */ bit: u8) -> u8 { if bit == 1 { 3 } else { 4 } }");
        assert_eq!(rules(&f), vec![Rule::CtBranch]);
    }

    #[test]
    fn index_by_secret_is_flagged() {
        let f = analyze("fn f(table: &[u8], /* ct: secret */ i: usize) -> u8 { table[i] }");
        assert_eq!(rules(&f), vec![Rule::CtIndex]);
    }

    #[test]
    fn taint_flows_through_let_and_arithmetic() {
        let f = analyze(
            "fn f(/* ct: secret */ s: u32) -> u32 { let d = s >> 3; let e = d + 1; if e > 0 { 1 } else { 0 } }",
        );
        assert_eq!(rules(&f), vec![Rule::CtBranch]);
    }

    #[test]
    fn shadowing_with_public_value_untaints() {
        let f = analyze(
            "fn f(/* ct: secret */ s: u32) -> u32 { let d = s; let d = 7u32; if d > 0 { 1 } else { 0 } }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn secret_typed_param_is_a_root() {
        let f = analyze("fn f(sk: &SecretKey) -> bool { match sk.r2_hat { _ => true } }");
        assert_eq!(rules(&f), vec![Rule::CtBranch]);
    }

    #[test]
    fn len_on_secret_is_public_structure() {
        let f =
            analyze("fn f(sk: &SecretKey) -> bool { if sk.len() == 0 { true } else { false } }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn masked_select_idiom_is_quiet() {
        // Mirrors rlwe_zq::ct::ct_select_u8 / ct_eq_mask: pure masked
        // arithmetic over a secret must produce zero findings.
        let f = analyze(
            "fn ct_select(mask: u8, /* ct: secret */ a: u8, b: u8) -> u8 { (mask & a) | (!mask & b) }\n\
             fn ct_eq_mask(/* ct: secret */ a: &[u8], b: &[u8]) -> u8 {\n\
                 let mut acc = (a.len() ^ b.len()) as u64;\n\
                 for (x, y) in a.iter().zip(b) { acc |= (x ^ y) as u64; }\n\
                 let nonzero = ((acc | acc.wrapping_neg()) >> 63) as u8;\n\
                 nonzero.wrapping_sub(1)\n\
             }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn short_circuit_with_secret_operand_is_flagged() {
        let f = analyze("fn f(/* ct: secret */ a: bool, b: bool) -> bool { let x = a && b; x }");
        assert_eq!(rules(&f), vec![Rule::CtShortCircuit]);
    }

    #[test]
    fn double_reference_is_not_short_circuit() {
        let f = analyze("fn f(/* ct: secret */ a: u32) -> u32 { let b = &&a; **b }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn try_on_secret_statement_is_flagged() {
        let f = analyze(
            "fn f(/* ct: secret */ sk: &[u8]) -> Result<u8, ()> { let v = parse(sk)?; Ok(v) }",
        );
        assert_eq!(rules(&f), vec![Rule::CtTry]);
    }

    #[test]
    fn early_return_of_secret_is_flagged() {
        let f = analyze("fn f(/* ct: secret */ s: u32, p: bool) -> u32 { if p { return s; } 0 }");
        // The `if` is on public p (quiet); the nested return of s fires.
        assert_eq!(rules(&f), vec![Rule::CtReturn]);
    }

    #[test]
    fn annotated_source_taints_callers_across_fns() {
        let f = analyze(
            "// ct: secret\nfn derive_key(x: u32) -> u32 { x.wrapping_mul(3) }\n\
             fn caller() -> u32 { let k = derive_key(7); if k > 9 { 1 } else { 0 } }",
        );
        assert_eq!(rules(&f), vec![Rule::CtBranch]);
    }

    #[test]
    fn secret_type_constructor_taints_result() {
        let f = analyze(
            "fn g(bytes: &[u8]) -> u8 { let sk = SecretKey::from_bytes(bytes); if sk.first { 1 } else { 0 } }",
        );
        assert_eq!(rules(&f), vec![Rule::CtBranch]);
    }

    #[test]
    fn self_in_secret_impl_is_tainted() {
        let f = analyze(
            "impl HashDrbg { fn peek(&self) -> u8 { if self.counter > 0 { 1 } else { 0 } } }",
        );
        assert_eq!(rules(&f), vec![Rule::CtBranch]);
    }

    #[test]
    fn annotated_field_taints_access_sites() {
        let f = analyze(
            "struct D { // ct: secret\n seed: [u8; 32], n: u32 }\n\
             fn f(d: &D) -> u8 { if d.seed[0] == 0 { 1 } else { 0 } }\n\
             fn g(d: &D) -> u8 { if d.n == 0 { 1 } else { 0 } }",
        );
        assert_eq!(rules(&f), vec![Rule::CtBranch]);
    }

    #[test]
    fn out_params_of_tainted_calls_become_tainted() {
        let f = analyze(
            "fn f(sk: &SecretKey, out: &mut [u8]) { let mut msg = [0u8; 4];\n\
             decrypt_into(sk, &mut msg);\n\
             if msg[0] == 1 { out[0] = 1; } }",
        );
        assert_eq!(rules(&f), vec![Rule::CtBranch]);
    }

    #[test]
    fn out_param_taint_stays_on_the_field_it_names() {
        // The leakage harness's timed decapsulation: the `&mut
        // self.scratch` out-parameter of a secret call makes the scratch
        // secret, but indexing a public pool by the public selector word
        // stays quiet — the rest of `self` is not tainted with it.
        let f = analyze(
            "struct C { // ct: secret\n sk: u32, scratch: [u8; 4], selector: u32, pool: [u8; 4] }\n\
             impl C { fn decap_once(&mut self) -> u8 {\n\
                 let ss = decapsulate_cca_with_scratch(&self.sk, &mut self.scratch);\n\
                 let ct = self.pool[self.selector.next_word() as usize % 4];\n\
                 let lut = [0u8; 256];\n\
                 ss ^ ct ^ lut[self.scratch[0] as usize] } }",
        );
        assert_eq!(
            f.iter().map(|f| (f.rule, f.line)).collect::<Vec<_>>(),
            vec![(Rule::CtIndex, 7)],
            "{f:?}"
        );
    }

    #[test]
    fn call_sink_is_reported_at_the_call_site() {
        let f = analyze(
            "fn lookup(table: &[u8], i: usize) -> u8 { table[i] }\n\
             fn caller(/* ct: secret */ s: usize, t: &[u8]) -> u8 { lookup(t, s) }",
        );
        assert!(rules(&f).contains(&Rule::CtCallSink), "{f:?}");
    }

    #[test]
    fn ct_allow_suppresses_with_reason() {
        let f = analyze(
            "fn f(/* ct: secret */ bit: u8) -> u8 {\n\
             // ct-allow(verdict is public by protocol design)\n\
             if bit == 1 { 3 } else { 4 } }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn for_loop_over_secret_taints_the_binding() {
        let f = analyze(
            "fn f(sk: &SecretKey) -> u32 { let mut acc = 0; for c in sk.coeffs() { acc += big[c as usize]; } acc }",
        );
        assert_eq!(rules(&f), vec![Rule::CtIndex]);
    }

    #[test]
    fn if_let_on_secret_expression_is_a_branch() {
        let f = analyze(
            "fn f(sk: &SecretKey) -> u8 { if let Some(v) = sk.first_zero() { 1 } else { 0 } }",
        );
        assert_eq!(rules(&f), vec![Rule::CtBranch]);
    }
}
