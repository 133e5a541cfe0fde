//! Function extraction and per-crate call graph over the token stream.
//!
//! The hot-path rules (`hot-alloc`, `panic-in-hot`) need to know, per
//! crate: which functions exist, where their bodies are, what each body
//! calls, and which functions are reachable from the per-cycle hot roots.
//! All of that is derived here from [`crate::lexer`] tokens — no syntax
//! tree, just span arithmetic over a stream that already has literals and
//! comments out of the way.

use crate::lexer::{Token, TokenKind};

/// Keywords that look like call heads but never are (`if (…)`,
/// `return (…)`, `match (…)`, tuple-struct `Self(…)`, …).
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "let", "fn", "impl", "struct", "enum",
    "trait", "mod", "use", "pub", "unsafe", "move", "as", "in", "where", "else", "break",
    "continue", "ref", "mut", "self", "Self", "super", "crate", "dyn", "box", "async", "await",
    "type", "const", "static", "extern",
];

/// Callees treated as construction-rate by convention: reachability does
/// not propagate *into* them (their bodies run at setup frequency even
/// when the call site is hot — e.g. a `Foo::new` invoked from a cold
/// branch of a hot function would otherwise drag the whole constructor
/// graph into the hot set).
const COLD_CALLEES: &[&str] = &["new", "default", "with_capacity", "quick"];

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Last path segment (`issue` for `Channel::issue(…)`, method name for
    /// `.issue(…)`).
    pub name: String,
    /// `Type::name` when the call is path-qualified.
    pub qual: Option<String>,
}

/// One function definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Bare name (`issue`).
    pub name: String,
    /// Qualified name (`Channel::issue`) when defined in an `impl` block,
    /// otherwise the bare name.
    pub qual: String,
    /// Index into the crate's file list.
    pub file: usize,
    /// Token index range `[open_brace, close_brace]` of the body within
    /// the file's token stream; `None` for bodyless trait declarations.
    pub body: Option<(usize, usize)>,
    /// Call sites inside the body.
    pub calls: Vec<Call>,
}

/// Why a function is in the hot set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HotReason {
    /// The function's own name marks it as a per-cycle root.
    Root,
    /// Reachable from a cycle root; the chain is `root → … → this`.
    ReachedFrom { root: String, via: Vec<String> },
}

/// Per-crate function table + call graph.
pub struct FnTable {
    pub fns: Vec<FnDef>,
}

/// True if `name`/`qual` names a per-cycle root whose *transitive callees*
/// are hot: `tick*`, `step`, `on_completion*`, and `issue` (FR-FCFS
/// command issue, `Channel::issue`, runs once per scheduled DRAM command).
/// The event wheel's entry points (`EventWheel::post` / `cancel` /
/// `next_event_after`) stay roots while perfbench's replay times the
/// wheel; the simulator itself no longer holds one.
pub fn is_cycle_root(name: &str, qual: &str) -> bool {
    name.starts_with("tick")
        || name == "step"
        || name.starts_with("on_completion")
        || name == "issue"
        || qual == "EventWheel::post"
        || qual == "EventWheel::cancel"
        || qual == "EventWheel::next_event_after"
}

/// True if `name` marks a *driver* root: hot in its own body (it contains
/// the measured region — `Pipeline::evaluate*` drives the whole run), but
/// without transitive propagation, because everything it calls directly is
/// setup-rate (profiling cache, config construction); the per-cycle work
/// it triggers funnels through the cycle roots in `sim`/`dram`/`cpu`.
pub fn is_driver_root(name: &str) -> bool {
    name == "evaluate" || name.starts_with("evaluate_")
}

impl FnTable {
    /// Extract every function (with impl-block qualification) and its call
    /// sites from one file's token stream.
    pub fn extract(toks: &[Token], file: usize, out: &mut Vec<FnDef>) {
        // Impl-block context: (type name, brace depth of the impl body).
        let mut impl_stack: Vec<(String, i64)> = Vec::new();
        let mut pending_impl: Option<String> = None;
        let mut depth: i64 = 0;

        let mut k = 0;
        while k < toks.len() {
            let t = &toks[k];
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "{" => {
                        depth += 1;
                        if let Some(name) = pending_impl.take() {
                            impl_stack.push((name, depth));
                        }
                    }
                    "}" => {
                        if impl_stack.last().is_some_and(|&(_, d)| d == depth) {
                            impl_stack.pop();
                        }
                        depth -= 1;
                    }
                    _ => {}
                }
                k += 1;
                continue;
            }
            if t.is_ident("impl") {
                pending_impl = impl_type_name(toks, k + 1);
                k += 1;
                continue;
            }
            if t.is_ident("fn") {
                let Some(name_tok) = toks.get(k + 1) else {
                    break;
                };
                if name_tok.kind != TokenKind::Ident {
                    k += 1;
                    continue;
                }
                let name = name_tok.text.clone();
                let qual = match impl_stack.last() {
                    Some((ty, _)) => format!("{ty}::{name}"),
                    None => name.clone(),
                };
                let (body, after) = fn_body_range(toks, k + 2);
                let calls = body
                    .map(|(a, b)| call_sites(toks, a, b))
                    .unwrap_or_default();
                out.push(FnDef {
                    name,
                    qual,
                    file,
                    body,
                    calls,
                });
                // Resume right after the signature so nested items are
                // still discovered; brace accounting continues naturally.
                k = after;
                continue;
            }
            k += 1;
        }
    }

    /// Build the table for a whole crate from its per-file token streams.
    pub fn build(file_tokens: &[Vec<Token>]) -> FnTable {
        let mut fns = Vec::new();
        for (file, toks) in file_tokens.iter().enumerate() {
            Self::extract(toks, file, &mut fns);
        }
        FnTable { fns }
    }

    /// Resolve a call site to function indices defined in this crate:
    /// prefer an exact qualified match, fall back to every function with
    /// the same bare name (a deliberate over-approximation — for a lint,
    /// flagging through an ambiguous edge beats missing a real one).
    pub fn resolve(&self, call: &Call) -> Vec<usize> {
        if let Some(q) = &call.qual {
            let exact: Vec<usize> = self
                .fns
                .iter()
                .enumerate()
                .filter(|(_, f)| &f.qual == q)
                .map(|(i, _)| i)
                .collect();
            if !exact.is_empty() {
                return exact;
            }
        }
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.name == call.name)
            .map(|(i, _)| i)
            .collect()
    }

    /// The hot set: cycle roots, driver roots, and everything reachable
    /// from a cycle root through crate-local calls (excluding the
    /// constructors listed in `COLD_CALLEES`). Returns one `HotReason` per
    /// function index.
    pub fn hot_set(&self) -> Vec<Option<HotReason>> {
        let mut hot: Vec<Option<HotReason>> = vec![None; self.fns.len()];
        let mut queue: Vec<usize> = Vec::new();
        for (i, f) in self.fns.iter().enumerate() {
            if is_cycle_root(&f.name, &f.qual) {
                hot[i] = Some(HotReason::Root);
                queue.push(i);
            } else if is_driver_root(&f.name) {
                hot[i] = Some(HotReason::Root);
                // driver roots are NOT enqueued: no propagation.
            }
        }
        while let Some(i) = queue.pop() {
            let (root, via) = match &hot[i] {
                Some(HotReason::Root) => (self.fns[i].qual.clone(), Vec::new()),
                Some(HotReason::ReachedFrom { root, via }) => (root.clone(), via.clone()),
                None => unreachable!("queued fn is hot"),
            };
            let calls = self.fns[i].calls.clone();
            for call in &calls {
                if COLD_CALLEES.contains(&call.name.as_str()) {
                    continue;
                }
                for j in self.resolve(call) {
                    if j == i || hot[j].is_some() {
                        continue;
                    }
                    let mut via_j = via.clone();
                    via_j.push(self.fns[i].qual.clone());
                    hot[j] = Some(HotReason::ReachedFrom {
                        root: root.clone(),
                        via: via_j,
                    });
                    queue.push(j);
                }
            }
        }
        hot
    }
}

/// Parse the implementing type name after an `impl` keyword at `start`:
/// the last identifier at angle-depth 0 before the opening `{` (after
/// `for`, if present, only the right-hand path counts).
fn impl_type_name(toks: &[Token], start: usize) -> Option<String> {
    let mut angle: i64 = 0;
    let mut last: Option<String> = None;
    let mut k = start;
    while k < toks.len() {
        let t = &toks[k];
        match t.kind {
            TokenKind::Punct => match t.text.as_str() {
                "<" => angle += 1,
                // `->` inside a generic bound (`Fn(…) -> T`) is not a
                // closing angle.
                ">" if !(k > 0 && toks[k - 1].is_punct('-')) => angle -= 1,
                ">" => {}
                "{" | ";" => return last,
                _ => {}
            },
            TokenKind::Ident if angle == 0 => {
                if t.text == "for" {
                    last = None;
                } else if t.text == "where" {
                    return last;
                } else {
                    last = Some(t.text.clone());
                }
            }
            _ => {}
        }
        k += 1;
    }
    last
}

/// Starting just after a function's name token, skip the signature
/// (generics, parameters, return type, where clause) and return the body's
/// token range plus the index to resume scanning from (just past the name,
/// so nested items inside the body are still visited by the caller).
fn fn_body_range(toks: &[Token], mut k: usize) -> (Option<(usize, usize)>, usize) {
    let resume = k;
    // Generics.
    if toks.get(k).is_some_and(|t| t.is_punct('<')) {
        let mut angle = 0i64;
        while k < toks.len() {
            if toks[k].is_punct('<') {
                angle += 1;
            } else if toks[k].is_punct('>') && !(k > 0 && toks[k - 1].is_punct('-')) {
                angle -= 1;
                if angle == 0 {
                    k += 1;
                    break;
                }
            }
            k += 1;
        }
    }
    // Parameters.
    if toks.get(k).is_some_and(|t| t.is_punct('(')) {
        let mut paren = 0i64;
        while k < toks.len() {
            if toks[k].is_punct('(') {
                paren += 1;
            } else if toks[k].is_punct(')') {
                paren -= 1;
                if paren == 0 {
                    k += 1;
                    break;
                }
            }
            k += 1;
        }
    } else {
        return (None, resume);
    }
    // Return type / where clause: scan to `{` or `;` outside brackets.
    let mut bracket = 0i64;
    while k < toks.len() {
        let t = &toks[k];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "[" => bracket += 1,
                "]" => bracket -= 1,
                ";" if bracket == 0 => return (None, resume),
                "{" if bracket == 0 => break,
                _ => {}
            }
        }
        k += 1;
    }
    if k >= toks.len() {
        return (None, resume);
    }
    // Body: match braces.
    let open = k;
    let mut brace = 0i64;
    while k < toks.len() {
        if toks[k].is_punct('{') {
            brace += 1;
        } else if toks[k].is_punct('}') {
            brace -= 1;
            if brace == 0 {
                return (Some((open, k)), resume);
            }
        }
        k += 1;
    }
    (Some((open, toks.len() - 1)), resume)
}

/// Skip a turbofish (`::<…>`) starting at the first `:`; returns the index
/// just past the closing `>` or `at` unchanged if the shape doesn't match.
fn skip_turbofish(toks: &[Token], at: usize) -> usize {
    if !(toks.get(at).is_some_and(|t| t.is_punct(':'))
        && toks.get(at + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(at + 2).is_some_and(|t| t.is_punct('<')))
    {
        return at;
    }
    let mut angle = 0i64;
    let mut k = at + 2;
    while k < toks.len() {
        if toks[k].is_punct('<') {
            angle += 1;
        } else if toks[k].is_punct('>') && !(k > 0 && toks[k - 1].is_punct('-')) {
            angle -= 1;
            if angle == 0 {
                return k + 1;
            }
        }
        k += 1;
    }
    at
}

/// Extract call sites inside a body token range `[a, b]`.
fn call_sites(toks: &[Token], a: usize, b: usize) -> Vec<Call> {
    let mut calls = Vec::new();
    let mut k = a;
    while k <= b {
        let t = &toks[k];
        if t.kind != TokenKind::Ident || NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            k += 1;
            continue;
        }
        // A `fn` keyword right before means this is a definition.
        if k > 0 && toks[k - 1].is_ident("fn") {
            k += 1;
            continue;
        }
        // Walk a path: name (:: name)*, with optional trailing turbofish.
        let mut name = t.text.clone();
        let mut prev_seg: Option<String> = None;
        let mut j = k;
        loop {
            if toks.get(j + 1).is_some_and(|x| x.is_punct(':'))
                && toks.get(j + 2).is_some_and(|x| x.is_punct(':'))
            {
                if let Some(seg) = toks.get(j + 3) {
                    if seg.kind == TokenKind::Ident {
                        prev_seg = Some(name.clone());
                        name = seg.text.clone();
                        j += 3;
                        continue;
                    }
                }
                // `::<…>(` turbofish.
                let past = skip_turbofish(toks, j + 1);
                if past != j + 1 {
                    j = past - 1;
                }
            }
            break;
        }
        // Macro (`name!`) is not a call.
        if toks.get(j + 1).is_some_and(|x| x.is_punct('!')) {
            k = j + 2;
            continue;
        }
        if toks.get(j + 1).is_some_and(|x| x.is_punct('(')) {
            let qual = prev_seg.map(|p| format!("{p}::{name}"));
            calls.push(Call { name, qual });
        }
        k = j + 1;
    }
    calls
}
