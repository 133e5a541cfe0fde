//! `moca-lint`: repo-native static analysis for the MOCA simulator.
//!
//! The simulator's headline guarantee — a run is a bit-identical pure
//! function of its configuration — rests on source-level conventions that
//! `rustc` cannot check: no hash-ordered collections in simulated state, no
//! wall-clock reads or threads on the simulated path, all randomness through
//! the seeded [`moca_common::rng`], and no silent integer narrowing of
//! cycle- or address-typed values. This crate enforces those conventions
//! with a dependency-free Rust **lexer** ([`lexer`]: token stream with
//! line/column spans — raw strings, nested block comments, char literals
//! and lifetimes handled exactly) and a per-crate **call graph**
//! ([`functions`]: function spans, call sites, hot-root reachability),
//! plus a `check-model` pass that validates the DRAM timing presets and
//! the virtual address-space layout against their inter-parameter
//! constraints.
//!
//! ## Rules
//!
//! | rule             | scope                          | forbids |
//! |------------------|--------------------------------|---------|
//! | `det-map`        | simulated-path crates          | `std::collections::HashMap` / `HashSet` (use `BTreeMap` / `BTreeSet`) |
//! | `wall-clock`     | all except `telemetry`/`bench` | `std::time::Instant` / `SystemTime`, thread spawning |
//! | `unseeded-rng`   | everywhere                     | ambient randomness (`thread_rng`, `from_entropy`, …) |
//! | `narrowing-cast` | simulated-path crates          | bare `as u32`/`as usize`/… on cycle/address-flavored expressions (use [`moca_common::units::narrow_u32`]) |
//! | `hot-alloc`      | simulated-path crates          | heap allocation (`Vec::new()`, `vec![…]`, `format!`, `.to_string()`, `.to_vec()`, `Box::new()`, `.collect::<Vec<…>>`) in hot functions **and every function reachable from a cycle root** through the per-crate call graph |
//! | `panic-in-hot`   | simulated-path crates          | `panic!`/`todo!`/`unimplemented!`/`.unwrap()`/`.expect(…)` in hot functions and their transitive callees — a data-dependent abort on the per-cycle path |
//!
//! Hot roots come in two tiers: **cycle roots** (`tick*`, `step`,
//! `on_completion*`, `issue`, and the `EventWheel` entry points) propagate
//! hotness to every crate-local function they transitively call; **driver
//! roots** (`Pipeline::evaluate*`) are hot in their own body only — they
//! contain the measured region, but what they call directly is setup-rate.
//!
//! A finding is suppressed only by an inline pragma on the same line or
//! the line above — `// moca-lint: allow(<rule>): <justification>` (the
//! justification is mandatory).

pub mod functions;
pub mod lexer;

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

use functions::{FnTable, HotReason};
use lexer::{Token, TokenKind};

pub use lexer::strip_code;

/// Crates whose source participates in simulated state: hash-ordered
/// collections and silent narrowing are forbidden here.
pub const SIM_PATH_CRATES: &[&str] = &["sim", "dram", "vm", "core", "cpu", "cache"];

/// Crates that legitimately touch the host clock and threads (observability
/// and benchmarking are host-side by design).
pub const WALL_CLOCK_EXEMPT_CRATES: &[&str] = &["telemetry", "bench"];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name, as in the module-level rule table (e.g. `det-map`).
    pub rule: &'static str,
    /// Path relative to the workspace root.
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub excerpt: String,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}:{}: {}\n    {}",
            self.rule,
            self.path.display(),
            self.line,
            self.message,
            self.excerpt
        )
    }
}

/// One source file handed to [`scan_crate`].
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path to report in findings (workspace-relative).
    pub rel: PathBuf,
    /// Raw source text.
    pub raw: String,
}

/// True if `token` occurs in `line` delimited by non-identifier characters.
pub fn has_token(line: &str, token: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut start = 0;
    while let Some(pos) = line[start..].find(token) {
        let at = start + pos;
        let before_ok = at == 0 || !line[..at].chars().next_back().is_some_and(is_ident);
        let after = at + token.len();
        let after_ok = after >= line.len() || !line[after..].chars().next().is_some_and(is_ident);
        if before_ok && after_ok {
            return true;
        }
        start = at + token.len().max(1);
    }
    false
}

/// Whether raw line `raw` carries a valid allow-pragma for `rule`:
/// `moca-lint: allow(<rule>): <non-empty justification>`.
pub fn has_allow_pragma(raw: &str, rule: &str) -> bool {
    let needle = format!("moca-lint: allow({rule})");
    let Some(pos) = raw.find(&needle) else {
        return false;
    };
    let rest = raw[pos + needle.len()..].trim_start();
    let Some(justification) = rest.strip_prefix(':') else {
        return false;
    };
    !justification.trim().is_empty()
}

/// Context markers that identify a `u64`-flavored (cycle / address / size)
/// expression for the `narrowing-cast` rule.
const NARROWING_MARKERS: &[&str] = &[
    "Cycle",
    "cycle",
    "pfn",
    "vpn",
    "addr",
    "Addr",
    "bytes",
    "capacity",
    "u64",
    ".len()",
    "PAGE_SIZE",
    "CACHE_LINE_SIZE",
    "row_buffer",
    "line.0",
];

/// Narrowing cast targets the rule watches for.
const NARROWING_CASTS: &[&str] = &["as u32", "as u16", "as u8", "as usize"];

/// Ambient-randomness identifiers (anything not flowing through
/// `moca_common::rng::DetRng`).
const RNG_IDENTS: &[&str] = &[
    "thread_rng",
    "from_entropy",
    "RandomState",
    "getrandom",
    "fastrand",
];

/// Display names of the allocation patterns `hot-alloc` matches over the
/// token stream (the matcher itself is token-sequence based, so multi-line
/// spellings like a `.collect::<\nVec<_>>()` split across lines still hit).
pub const HOT_ALLOC_PATTERNS: &[&str] = &[
    "Vec::new()",
    "vec![…]",
    ".to_string()",
    "format!",
    ".collect::<Vec<…>>()",
    "Box::new()",
    ".to_vec()",
];

/// Display names of the abort patterns `panic-in-hot` matches.
pub const PANIC_PATTERNS: &[&str] = &[
    "panic!",
    "todo!",
    "unimplemented!",
    ".unwrap()",
    ".expect(…)",
];

/// Match an allocation pattern starting at token `k`; returns the display
/// name from [`HOT_ALLOC_PATTERNS`].
fn alloc_pattern_at(toks: &[Token], k: usize) -> Option<&'static str> {
    let t = &toks[k];
    let path2 = |a: &str, b: &str| {
        t.is_ident(a)
            && toks.get(k + 1).is_some_and(|x| x.is_punct(':'))
            && toks.get(k + 2).is_some_and(|x| x.is_punct(':'))
            && toks.get(k + 3).is_some_and(|x| x.is_ident(b))
    };
    if path2("Vec", "new") {
        return Some("Vec::new()");
    }
    if path2("Box", "new") {
        return Some("Box::new()");
    }
    if t.is_ident("vec") && toks.get(k + 1).is_some_and(|x| x.is_punct('!')) {
        return Some("vec![…]");
    }
    if t.is_ident("format") && toks.get(k + 1).is_some_and(|x| x.is_punct('!')) {
        return Some("format!");
    }
    if t.is_punct('.') {
        if let Some(m) = toks.get(k + 1) {
            if m.kind == TokenKind::Ident && toks.get(k + 2).is_some_and(|x| x.is_punct('(')) {
                if m.text == "to_string" {
                    return Some(".to_string()");
                }
                if m.text == "to_vec" {
                    return Some(".to_vec()");
                }
            }
            // `.collect::<Vec…>` — the turbofish may span lines; the first
            // identifier inside the angle brackets decides.
            if m.is_ident("collect")
                && toks.get(k + 2).is_some_and(|x| x.is_punct(':'))
                && toks.get(k + 3).is_some_and(|x| x.is_punct(':'))
                && toks.get(k + 4).is_some_and(|x| x.is_punct('<'))
            {
                let first_ident = toks[k + 5..]
                    .iter()
                    .find(|x| x.kind == TokenKind::Ident || x.kind == TokenKind::Punct);
                if first_ident.is_some_and(|x| x.is_ident("Vec")) {
                    return Some(".collect::<Vec<…>>()");
                }
            }
        }
    }
    None
}

/// Match a panic pattern starting at token `k`; returns the display name
/// from [`PANIC_PATTERNS`].
fn panic_pattern_at(toks: &[Token], k: usize) -> Option<&'static str> {
    let t = &toks[k];
    if toks.get(k + 1).is_some_and(|x| x.is_punct('!')) {
        if t.is_ident("panic") {
            return Some("panic!");
        }
        if t.is_ident("todo") {
            return Some("todo!");
        }
        if t.is_ident("unimplemented") {
            return Some("unimplemented!");
        }
    }
    if t.is_punct('.') {
        if let Some(m) = toks.get(k + 1) {
            if m.kind == TokenKind::Ident && toks.get(k + 2).is_some_and(|x| x.is_punct('(')) {
                if m.text == "unwrap" {
                    return Some(".unwrap()");
                }
                if m.text == "expect" {
                    return Some(".expect(…)");
                }
            }
        }
    }
    None
}

/// Per-file context shared by the passes.
struct FileCtx {
    rel: PathBuf,
    raw_lines: Vec<String>,
    code: Vec<String>,
    toks: Vec<Token>,
}

impl FileCtx {
    fn new(rel: &Path, raw: &str) -> FileCtx {
        FileCtx {
            rel: rel.to_path_buf(),
            raw_lines: raw.lines().map(str::to_string).collect(),
            code: lexer::strip_code(raw),
            toks: lexer::lex(raw),
        }
    }

    /// Push a finding at 0-based line `ln` unless a pragma suppresses it.
    fn push(&self, findings: &mut Vec<Finding>, rule: &'static str, ln: usize, message: String) {
        if ln >= self.raw_lines.len() {
            return;
        }
        let suppressed = has_allow_pragma(&self.raw_lines[ln], rule)
            || (ln > 0 && has_allow_pragma(&self.raw_lines[ln - 1], rule));
        if !suppressed {
            findings.push(Finding {
                rule,
                path: self.rel.clone(),
                line: ln + 1,
                excerpt: self.raw_lines[ln].trim().to_string(),
                message,
            });
        }
    }
}

/// Lint one crate: per-file rules plus hot-path propagation over the
/// crate's call graph. `crate_name` is the directory name under `crates/`
/// (e.g. `sim`).
pub fn scan_crate(crate_name: &str, files: &[SourceFile]) -> Vec<Finding> {
    let sim_path = SIM_PATH_CRATES.contains(&crate_name);
    let clock_checked = !WALL_CLOCK_EXEMPT_CRATES.contains(&crate_name);
    let ctxs: Vec<FileCtx> = files.iter().map(|f| FileCtx::new(&f.rel, &f.raw)).collect();
    let mut findings = Vec::new();

    for ctx in &ctxs {
        scan_tokens_per_file(ctx, sim_path, clock_checked, &mut findings);
        scan_lines_per_file(ctx, sim_path, &mut findings);
    }

    if sim_path {
        let streams: Vec<Vec<Token>> = ctxs.iter().map(|c| c.toks.clone()).collect();
        let table = FnTable::build(&streams);
        hot_pass(&table, &ctxs, &mut findings);
    }

    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    findings
}

/// Token-based per-file rules: `det-map`, `wall-clock`, `unseeded-rng`.
/// One finding per (rule, line, pattern), matching v1's per-line report
/// granularity with span-accurate matching.
fn scan_tokens_per_file(
    ctx: &FileCtx,
    sim_path: bool,
    clock_checked: bool,
    findings: &mut Vec<Finding>,
) {
    let toks = &ctx.toks;
    let mut seen: BTreeSet<(usize, &'static str)> = BTreeSet::new();
    for (k, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let ln = t.line - 1;
        if sim_path && (t.text == "HashMap" || t.text == "HashSet") {
            let (tok, ordered): (&'static str, &str) = if t.text == "HashMap" {
                ("HashMap", "BTreeMap")
            } else {
                ("HashSet", "BTreeSet")
            };
            if seen.insert((ln, tok)) {
                ctx.push(
                    findings,
                    "det-map",
                    ln,
                    format!(
                        "{tok} iteration order is nondeterministic; use \
                         std::collections::{ordered} instead"
                    ),
                );
            }
        }
        if clock_checked {
            if t.text == "Instant" || t.text == "SystemTime" {
                let tok: &'static str = if t.text == "Instant" {
                    "Instant"
                } else {
                    "SystemTime"
                };
                if seen.insert((ln, tok)) {
                    ctx.push(
                        findings,
                        "wall-clock",
                        ln,
                        format!(
                            "std::time::{tok} reads the host clock; simulated \
                             time is moca_common::Cycle"
                        ),
                    );
                }
            }
            if t.text == "thread"
                && toks.get(k + 1).is_some_and(|x| x.is_punct(':'))
                && toks.get(k + 2).is_some_and(|x| x.is_punct(':'))
            {
                if let Some(m) = toks.get(k + 3) {
                    let tok: Option<&'static str> = if m.is_ident("spawn") {
                        Some("thread::spawn")
                    } else if m.is_ident("scope") {
                        Some("thread::scope")
                    } else if m.is_ident("sleep") {
                        Some("thread::sleep")
                    } else {
                        None
                    };
                    if let Some(tok) = tok {
                        if seen.insert((ln, tok)) {
                            ctx.push(
                                findings,
                                "wall-clock",
                                ln,
                                format!("{tok} spawns host threads outside telemetry/bench"),
                            );
                        }
                    }
                }
            }
        }
        if let Some(&tok) = RNG_IDENTS.iter().find(|&&r| t.text == r) {
            if seen.insert((ln, tok)) {
                ctx.push(
                    findings,
                    "unseeded-rng",
                    ln,
                    format!("{tok} draws ambient entropy; use moca_common::rng::DetRng"),
                );
            }
        }
        if t.text == "rand"
            && toks.get(k + 1).is_some_and(|x| x.is_punct(':'))
            && toks.get(k + 2).is_some_and(|x| x.is_punct(':'))
            && toks.get(k + 3).is_some_and(|x| x.is_ident("random"))
            && seen.insert((ln, "rand::random"))
        {
            ctx.push(
                findings,
                "unseeded-rng",
                ln,
                "rand::random draws ambient entropy; use moca_common::rng::DetRng".to_string(),
            );
        }
    }
}

/// The stripped-line rule kept from v1 (its 3-line window is inherently
/// line-oriented): `narrowing-cast`.
fn scan_lines_per_file(ctx: &FileCtx, sim_path: bool, findings: &mut Vec<Finding>) {
    if !sim_path {
        return;
    }
    let code = &ctx.code;
    for (ln, line) in code.iter().enumerate() {
        let casts: Vec<&str> = NARROWING_CASTS
            .iter()
            .copied()
            .filter(|c| has_token(line, c))
            .collect();
        if !casts.is_empty() {
            // `as usize` is a widening on 64-bit hosts unless the source
            // is 64-bit flavored; require a marker in a 3-line window.
            let lo = ln.saturating_sub(2);
            let window = &code[lo..=ln];
            let marked = window
                .iter()
                .any(|l| NARROWING_MARKERS.iter().any(|m| l.contains(m)));
            if marked {
                ctx.push(
                    findings,
                    "narrowing-cast",
                    ln,
                    format!(
                        "bare `{}` may silently truncate a cycle/address \
                         value; use moca_common::units::narrow_*",
                        casts[0]
                    ),
                );
            }
        }
    }
}

/// Render a hot reason for messages: empty for a root, or the chain.
fn hot_chain(table: &FnTable, i: usize, reason: &HotReason) -> String {
    match reason {
        HotReason::Root => String::new(),
        HotReason::ReachedFrom { root, via } => {
            let mut chain = via.join(" → ");
            chain.push_str(" → ");
            chain.push_str(&table.fns[i].qual);
            format!(", reachable from hot root `{root}` via {chain}")
        }
    }
}

/// Apply `hot-alloc` and `panic-in-hot` over the hot set (direct roots and
/// call-graph-reachable functions). One finding per (rule, file, line) —
/// the leftmost pattern on a line wins, as in v1.
fn hot_pass(table: &FnTable, ctxs: &[FileCtx], findings: &mut Vec<Finding>) {
    let hot = table.hot_set();
    let mut flagged: BTreeSet<(&'static str, usize, usize)> = BTreeSet::new();
    for (i, reason) in hot.iter().enumerate() {
        let Some(reason) = reason else { continue };
        let f = &table.fns[i];
        let Some((a, b)) = f.body else { continue };
        let ctx = &ctxs[f.file];
        let chain = hot_chain(table, i, reason);
        for k in a..=b {
            if let Some(tok) = alloc_pattern_at(&ctx.toks, k) {
                let ln = ctx.toks[k].line - 1;
                if flagged.insert(("hot-alloc", f.file, ln)) {
                    ctx.push(
                        findings,
                        "hot-alloc",
                        ln,
                        format!(
                            "`{tok}` allocates inside per-cycle hot function \
                             `{}`{chain}; hoist a reusable buffer to the owning \
                             struct (cf. System::woken_buf) or justify with a pragma",
                            f.qual
                        ),
                    );
                }
            }
            if let Some(tok) = panic_pattern_at(&ctx.toks, k) {
                let ln = ctx.toks[k].line - 1;
                if flagged.insert(("panic-in-hot", f.file, ln)) {
                    ctx.push(
                        findings,
                        "panic-in-hot",
                        ln,
                        format!(
                            "`{tok}` can abort the run from per-cycle hot function \
                             `{}`{chain}; handle the None/Err case on the hot path \
                             or justify the invariant with a pragma",
                            f.qual
                        ),
                    );
                }
            }
        }
    }
}

/// Lint one file. `crate_name` is the directory name under `crates/`
/// (e.g. `sim`); `rel` is the path to report in findings. `raw` is the
/// original source. Equivalent to a single-file [`scan_crate`].
pub fn scan_file(crate_name: &str, rel: &Path, raw: &str) -> Vec<Finding> {
    scan_crate(
        crate_name,
        &[SourceFile {
            rel: rel.to_path_buf(),
            raw: raw.to_string(),
        }],
    )
}

/// Recursively collect `.rs` files under `dir`, sorted for deterministic
/// reports.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scan every crate's `src/` under `<root>/crates/`, plus the shared
/// integration tests in `<root>/tests/`. Each crate is scanned as a unit
/// so the call-graph pass sees cross-file calls. The `analysis` crate
/// itself is excluded: its rule tables and fixtures necessarily spell the
/// forbidden tokens.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<_> = std::fs::read_dir(&crates_dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        let crate_name = crate_dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("")
            .to_string();
        if crate_name == "analysis" {
            continue;
        }
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut paths = Vec::new();
        rust_files(&src, &mut paths)?;
        let mut files = Vec::new();
        for file in paths {
            let raw = std::fs::read_to_string(&file)?;
            let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
            files.push(SourceFile { rel, raw });
        }
        findings.extend(scan_crate(&crate_name, &files));
    }
    // Shared integration tests drive the simulated path; hold them to the
    // same clock/rng rules (they are not in a sim-path crate, so det-map and
    // narrowing-cast do not apply).
    let tests = root.join("tests");
    if tests.is_dir() {
        let mut paths = Vec::new();
        rust_files(&tests, &mut paths)?;
        let mut files = Vec::new();
        for file in paths {
            let raw = std::fs::read_to_string(&file)?;
            let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
            files.push(SourceFile { rel, raw });
        }
        findings.extend(scan_crate("tests", &files));
    }
    Ok(findings)
}

/// One named model-validation check.
pub struct ModelCheck {
    /// What was validated (e.g. `timing preset DDR3`).
    pub name: String,
    /// `Err` carries the named-constraint message.
    pub result: Result<(), String>,
}

/// Statically validate the timing/layout model: every Table II device
/// preset ([`moca_dram::DeviceTiming::validate`]), the virtual
/// address-space layout ([`moca_vm::layout::validate_layout`]), every
/// evaluated system configuration ([`moca_sim::config::SystemConfig`]),
/// and the frame-allocator identities of every memory layout at both the
/// default evaluation scale (1/64) and full scale=1 footprints.
pub fn check_model() -> Vec<ModelCheck> {
    use moca_common::ModuleKind;
    use moca_sim::config::{HeterogeneousLayout, MemSystemConfig, SystemConfig};

    let mut checks = Vec::new();
    for kind in ModuleKind::ALL {
        checks.push(ModelCheck {
            name: format!("timing preset {}", kind.name()),
            result: moca_dram::DeviceTiming::for_kind(kind).validate(),
        });
    }
    checks.push(ModelCheck {
        name: "vm address-space layout".to_string(),
        result: moca_vm::layout::validate_layout(),
    });
    let mems = [
        (
            "Homogen-DDR3",
            MemSystemConfig::Homogeneous(ModuleKind::Ddr3),
        ),
        (
            "Homogen-RL",
            MemSystemConfig::Homogeneous(ModuleKind::Rldram3),
        ),
        ("Homogen-HBM", MemSystemConfig::Homogeneous(ModuleKind::Hbm)),
        (
            "Homogen-LP",
            MemSystemConfig::Homogeneous(ModuleKind::Lpddr2),
        ),
        (
            "Heter config1",
            MemSystemConfig::Heterogeneous(HeterogeneousLayout::config1()),
        ),
        (
            "Heter config2",
            MemSystemConfig::Heterogeneous(HeterogeneousLayout::config2()),
        ),
        (
            "Heter config3",
            MemSystemConfig::Heterogeneous(HeterogeneousLayout::config3()),
        ),
    ];
    for (label, mem) in &mems {
        checks.push(ModelCheck {
            name: format!("system config {label}"),
            result: SystemConfig::quad_core(*mem).validate(),
        });
    }

    // Striping must respect the L2 page-color period: rotating regions
    // every STRIPE_CHUNK frames only keeps virtually-adjacent pages
    // covering all physical page colors if the chunk is a whole number of
    // color periods.
    checks.push(ModelCheck {
        name: "stripe chunk vs L2 color period".to_string(),
        result: {
            let l2 = moca_cache::CacheConfig::l2();
            let color_period_pages =
                l2.sets() * moca_common::CACHE_LINE_SIZE / moca_common::PAGE_SIZE;
            if color_period_pages == 0 {
                Err(format!(
                    "L2 ({} sets) spans less than one page; page coloring is moot",
                    l2.sets()
                ))
            } else if moca_vm::STRIPE_CHUNK % color_period_pages != 0 {
                Err(format!(
                    "STRIPE_CHUNK {} not a multiple of the L2 color period {} pages",
                    moca_vm::STRIPE_CHUNK,
                    color_period_pages
                ))
            } else {
                Ok(())
            }
        },
    });

    // Frame-allocator identities per layout at the default evaluation
    // scale and at scale=1 — the full-footprint regime the hierarchical
    // bitmap exists for.
    for (label, mem) in &mems {
        for (scale_label, scale) in [
            ("1/64", moca_workloads::spec::DEFAULT_FOOTPRINT_SCALE),
            ("1", 1.0),
        ] {
            checks.push(ModelCheck {
                name: format!("frame allocator {label} @ scale {scale_label}"),
                result: validate_frame_allocator(mem, scale),
            });
        }
    }
    checks
}

/// Frame-allocator structural identities for one memory layout at one
/// capacity scale: contiguous zero-based regions, page-aligned capacities,
/// frame-count/capacity agreement, all-free headroom at init, bitmap
/// invariants, and bitmap-bounded bookkeeping memory.
fn validate_frame_allocator(
    mem: &moca_sim::config::MemSystemConfig,
    scale: f64,
) -> Result<(), String> {
    use moca_common::PAGE_SIZE;

    let regions = mem.frame_regions(scale);
    if regions.is_empty() {
        return Err("layout produced no regions".to_string());
    }
    let mut expected_base = 0u64;
    for (i, r) in regions.iter().enumerate() {
        if r.base_pfn != expected_base {
            return Err(format!(
                "region {i} ({}) starts at pfn {}, expected {expected_base} (gap or overlap)",
                r.kind, r.base_pfn
            ));
        }
        if r.frames == 0 {
            return Err(format!("region {i} ({}) is empty", r.kind));
        }
        if r.capacity_bytes() != r.frames * PAGE_SIZE {
            return Err(format!(
                "region {i} ({}) capacity {} disagrees with {} frames",
                r.kind,
                r.capacity_bytes(),
                r.frames
            ));
        }
        expected_base += r.frames;
    }

    let fs = moca_vm::FrameSpace::new(regions.clone());
    fs.check_invariants()
        .map_err(|e| format!("fresh allocator violates invariants: {e}"))?;
    if fs.total_frames() != expected_base {
        return Err(format!(
            "allocator counts {} frames, regions sum to {expected_base}",
            fs.total_frames()
        ));
    }
    // At init every frame of every kind is free, and headroom must say so.
    for (kind, free) in fs.headroom() {
        let expect: u64 = regions
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.frames)
            .sum();
        if free != expect {
            return Err(format!(
                "initial headroom for {kind} is {free}, regions hold {expect} frames"
            ));
        }
    }
    // Bookkeeping must stay bitmap-bounded (≈ frames/8 + frames/512 bytes),
    // not freed-Vec-bounded: allow one byte per four frames plus fixed
    // per-region slack.
    let budget = fs.total_frames() / 4 + 4096 * regions.len() as u64;
    if fs.alloc_bytes() as u64 > budget {
        return Err(format!(
            "allocator bookkeeping {} B exceeds bitmap budget {budget} B for {} frames",
            fs.alloc_bytes(),
            fs.total_frames()
        ));
    }
    Ok(())
}
