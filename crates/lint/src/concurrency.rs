//! Concurrency discipline rules over the item-level parser.
//!
//! Three rule families (DESIGN.md §17) guard the workspace's concurrent
//! surface — the thread-per-client TCP deployment, the server fold loop, and
//! whatever the roadmap's codec work adds next:
//!
//! * **lock-order** — every nested lock acquisition (`B` acquired while a
//!   guard on `A` is live) becomes an edge `A → B` in a workspace-wide
//!   lock-acquisition order graph; edges on a cycle are violations, as is
//!   re-acquiring a lock while its own guard is live (self-deadlock on
//!   non-reentrant locks) and any blocking channel `send`/`recv`/`join`/
//!   `wait`/`sleep` performed under a live guard. Attest a reviewed
//!   nesting with `// LINT: lock-order <name>` — the name documents the
//!   global order the site obeys.
//! * **unbounded-channel** — channel constructions must be bounded
//!   (`channel::bounded(n)`) so backpressure is explicit, or carry
//!   `// LINT: allow(unbounded-channel) <reason>`.
//! * **detached-thread** — every `thread::spawn` / `Builder::…spawn` must
//!   have a reachable `join`: on its own binding, or on the result of the
//!   spawning function at a call site (resolved through the parser's call
//!   edges). Deliberately detached threads attest with
//!   `// LINT: allow(detached-thread) <reason>`.
//!
//! Scoped spawns (`thread::scope`'s `s.spawn(…)`) are exempt: the scope
//! joins them by construction.

use std::collections::{BTreeMap, BTreeSet};

use crate::parser::ParsedFile;
use crate::rules::{FileCtx, Lines, Violation, CONCURRENCY_CRATES};

/// One nested-acquisition edge: `acquired` was taken while a guard on
/// `held` was live, at `file:line`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LockEdge {
    pub held: String,
    pub acquired: String,
    pub file: String,
    pub line: usize,
}

/// Blocking operations that must not run under a live guard.
const BLOCKING_METHODS: &[&str] = &["send", "recv", "recv_timeout", "join", "wait"];

/// Runs the three concurrency rules on one parsed file, appending
/// violations and returning the file's (unattested) lock edges for the
/// workspace-wide cycle pass.
pub fn apply(
    ctx: &FileCtx,
    parsed: &ParsedFile<'_>,
    in_test: &[bool],
    lines: &Lines,
    out: &mut Vec<Violation>,
) -> Vec<LockEdge> {
    if ctx.is_test_file || !CONCURRENCY_CRATES.contains(&ctx.crate_name.as_str()) {
        return Vec::new();
    }
    let edges = rule_lock_order(ctx, parsed, in_test, lines, out);
    rule_unbounded_channel(ctx, parsed, in_test, lines, out);
    rule_detached_thread(ctx, parsed, in_test, lines, out);
    edges
}

fn rule_lock_order(
    ctx: &FileCtx,
    parsed: &ParsedFile<'_>,
    in_test: &[bool],
    lines: &Lines,
    out: &mut Vec<Violation>,
) -> Vec<LockEdge> {
    let live = |c: usize| in_test.get(parsed.token_index(c)).copied().unwrap_or(false);
    let guards: Vec<_> = parsed
        .guard_scopes()
        .into_iter()
        .filter(|g| !live(g.acquire))
        .collect();
    let mut edges = Vec::new();
    let mut flagged_blocking: BTreeSet<usize> = BTreeSet::new();
    for g in &guards {
        // Nested acquisitions inside g's live region.
        for h in &guards {
            if h.acquire <= g.acquire || h.acquire >= g.end {
                continue;
            }
            if h.name == g.name {
                if !lines.attested_with_reason(h.line, "LINT: lock-order") {
                    out.push(Violation {
                        file: ctx.rel_path.clone(),
                        line: h.line,
                        rule: "lock-order",
                        message: format!(
                            "re-acquiring `{}` while its own guard is live \
                             self-deadlocks a non-reentrant lock — drop the \
                             guard first, or attest with \
                             `// LINT: lock-order <name>`",
                            h.name
                        ),
                    });
                }
                continue;
            }
            if lines.attested_with_reason(h.line, "LINT: lock-order") {
                continue; // reviewed nesting: excluded from the graph
            }
            edges.push(LockEdge {
                held: g.name.clone(),
                acquired: h.name.clone(),
                file: ctx.rel_path.clone(),
                line: h.line,
            });
        }
        // Blocking operations inside g's live region.
        for c in g.acquire + 1..g.end.min(parsed.code.len()) {
            if live(c) || !parsed.is_ident(c) {
                continue;
            }
            let name = parsed.text(c);
            let is_method_block = BLOCKING_METHODS.contains(&name)
                && c > 0
                && parsed.text(c - 1) == "."
                && parsed.text(c + 1) == "(";
            let is_sleep = name == "sleep"
                && c >= 2
                && parsed.text(c - 1) == ":"
                && parsed.text(c - 2) == ":"
                && parsed.text(c + 1) == "(";
            if !is_method_block && !is_sleep {
                continue;
            }
            let line = parsed.line(c);
            if lines.attested_with_reason(line, "LINT: lock-order") || !flagged_blocking.insert(c) {
                continue;
            }
            out.push(Violation {
                file: ctx.rel_path.clone(),
                line,
                rule: "lock-order",
                message: format!(
                    "blocking `{}` while the guard on `{}` is live risks \
                     deadlock — release the guard before blocking, or attest \
                     with `// LINT: lock-order <name>`",
                    name, g.name
                ),
            });
        }
    }
    edges
}

/// Reports every edge that participates in a lock-order cycle. Called
/// per file by `lint_source` (fixtures, single-file use) and over the
/// merged edge list by `lint_workspace`, so cross-file cycles through
/// `net`/`transport`/`federated` are caught too.
pub fn lock_cycle_violations(edges: &[LockEdge]) -> Vec<Violation> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        adj.entry(e.held.as_str()).or_default().insert(&e.acquired);
    }
    let reaches = |from: &str, to: &str| -> bool {
        let mut seen = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if !seen.insert(n) {
                continue;
            }
            if let Some(next) = adj.get(n) {
                stack.extend(next.iter().copied());
            }
        }
        false
    };
    let mut out = Vec::new();
    for e in edges {
        if reaches(&e.acquired, &e.held) {
            out.push(Violation {
                file: e.file.clone(),
                line: e.line,
                rule: "lock-order",
                message: format!(
                    "acquiring `{}` while holding `{}` is part of a \
                     lock-order cycle — nest the locks in one global order, \
                     or attest the reviewed order with \
                     `// LINT: lock-order <name>`",
                    e.acquired, e.held
                ),
            });
        }
    }
    out
}

fn rule_unbounded_channel(
    ctx: &FileCtx,
    parsed: &ParsedFile<'_>,
    in_test: &[bool],
    lines: &Lines,
    out: &mut Vec<Violation>,
) {
    for c in 0..parsed.code.len() {
        if in_test.get(parsed.token_index(c)).copied().unwrap_or(false) || !parsed.is_ident(c) {
            continue;
        }
        let name = parsed.text(c);
        // `unbounded()` (crossbeam) or `mpsc::channel()` (std, unbounded
        // by definition).
        let is_unbounded = name == "unbounded"
            || (name == "channel"
                && c >= 3
                && parsed.text(c - 1) == ":"
                && parsed.text(c - 2) == ":"
                && parsed.text(c - 3) == "mpsc");
        if !is_unbounded || call_open(parsed, c).is_none() {
            continue;
        }
        let line = parsed.line(c);
        if lines.attested_with_reason(line, "LINT: allow(unbounded-channel)") {
            continue;
        }
        out.push(Violation {
            file: ctx.rel_path.clone(),
            line,
            rule: "unbounded-channel",
            message: format!(
                "unbounded channel in concurrency crate `{}` hides \
                 backpressure and can grow without limit — use \
                 `channel::bounded(n)`, or attest with \
                 `// LINT: allow(unbounded-channel) <reason>`",
                ctx.crate_name
            ),
        });
    }
}

/// Code index of the `(` opening a call of the ident at `c`, looking
/// through an optional turbofish (`unbounded::<u8>()` must not evade a
/// rule keyed on `unbounded(`). `None` when no call follows.
fn call_open(parsed: &ParsedFile<'_>, c: usize) -> Option<usize> {
    let mut k = c + 1;
    if parsed.text(k) == ":" && parsed.text(k + 1) == ":" && parsed.text(k + 2) == "<" {
        let mut depth = 1i32;
        k += 3;
        while k < parsed.code.len() && depth > 0 {
            match parsed.text(k) {
                "<" => depth += 1,
                ">" => depth -= 1,
                _ => {}
            }
            k += 1;
        }
    }
    (parsed.text(k) == "(").then_some(k)
}

fn rule_detached_thread(
    ctx: &FileCtx,
    parsed: &ParsedFile<'_>,
    in_test: &[bool],
    lines: &Lines,
    out: &mut Vec<Violation>,
) {
    // Idents whose handle is joined somewhere in the file: `x.join(…)`.
    let mut joined: BTreeSet<&str> = BTreeSet::new();
    for j in 0..parsed.code.len() {
        if parsed.is_ident(j)
            && parsed.text(j + 1) == "."
            && parsed.text(j + 2) == "join"
            && parsed.text(j + 3) == "("
        {
            joined.insert(parsed.text(j));
        }
    }

    // Whether some call site of `f` has its returned handle joined:
    // either chained directly (`f(…).join()`) or via a let binding whose
    // name is later joined — the call-edge view of "reachable join".
    let call_result_joined = |f: &str| -> bool {
        for c in 0..parsed.code.len() {
            if !parsed.is_ident(c) || parsed.text(c) != f || parsed.text(c + 1) != "(" {
                continue;
            }
            if c > 0 && parsed.text(c - 1) == "fn" {
                continue; // the definition, not a call
            }
            // Find the call's closing paren.
            let mut depth = 0i32;
            let mut k = c + 1;
            while k < parsed.code.len() {
                match parsed.text(k) {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            if parsed.text(k + 1) == "." && parsed.text(k + 2) == "join" {
                return true;
            }
            if let Some(l) = parsed.enclosing_let(c) {
                if l.name.as_deref().is_some_and(|n| joined.contains(n)) {
                    return true;
                }
            }
        }
        false
    };

    for c in 0..parsed.code.len() {
        if in_test.get(parsed.token_index(c)).copied().unwrap_or(false)
            || !parsed.is_ident(c)
            || parsed.text(c) != "spawn"
            || call_open(parsed, c).is_none()
        {
            continue;
        }
        let prev = if c > 0 { parsed.text(c - 1) } else { "" };
        let flagged = if prev == ":" && c >= 3 && parsed.text(c - 2) == ":" {
            // Path form: only `thread::spawn` detaches; `rayon::spawn`
            // etc. are pool tasks, not OS threads with handles.
            parsed.text(c - 3) == "thread"
        } else if prev == "." {
            // Method form: `Builder::new()…spawn()` detaches if unjoined;
            // `scope.spawn(…)` is joined by the scope itself.
            statement_mentions_builder(parsed, c)
        } else {
            false
        };
        if !flagged {
            continue;
        }
        let bound_joined = parsed
            .enclosing_let(c)
            .and_then(|l| l.name.as_deref())
            .is_some_and(|n| joined.contains(n));
        let returned_joined = parsed
            .enclosing_fn(c)
            .is_some_and(|f| call_result_joined(&f.name));
        if bound_joined || returned_joined {
            continue;
        }
        let line = parsed.line(c);
        if lines.attested_with_reason(line, "LINT: allow(detached-thread)") {
            continue;
        }
        out.push(Violation {
            file: ctx.rel_path.clone(),
            line,
            rule: "detached-thread",
            message: "spawned thread has no reachable `join` — join its \
                      handle (directly, or where the spawning function's \
                      result is consumed), or attest with \
                      `// LINT: allow(detached-thread) <reason>`"
                .into(),
        });
    }
}

/// Walks back from a `.spawn(` to its statement start looking for the
/// `Builder` ident (bounded lookback; statements are short).
fn statement_mentions_builder(parsed: &ParsedFile<'_>, spawn: usize) -> bool {
    let mut c = spawn;
    for _ in 0..64 {
        if c == 0 {
            return false;
        }
        c -= 1;
        match parsed.text(c) {
            ";" | "{" | "}" => return false,
            "Builder" => return true,
            _ => {}
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::lint_source;

    fn ctx(crate_name: &str) -> FileCtx {
        FileCtx {
            crate_name: crate_name.into(),
            rel_path: format!("crates/{crate_name}/src/x.rs"),
            is_test_file: false,
        }
    }

    fn rules_hit(v: &[Violation]) -> Vec<&'static str> {
        v.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn opposite_nesting_orders_are_a_cycle() {
        let src = "fn a() { let g = m1.lock(); let h = m2.lock(); }\n\
                   fn b() { let g = m2.lock(); let h = m1.lock(); }\n";
        let v = lint_source(&ctx("net"), src);
        assert_eq!(rules_hit(&v), ["lock-order", "lock-order"]);
    }

    #[test]
    fn consistent_nesting_order_is_clean() {
        let src = "fn a() { let g = m1.lock(); let h = m2.lock(); }\n\
                   fn b() { let g = m1.lock(); let h = m2.lock(); }\n";
        assert!(lint_source(&ctx("net"), src).is_empty());
    }

    #[test]
    fn attested_nesting_is_excluded_from_the_graph() {
        let src = "fn a() {\n    let g = m1.lock();\n    // LINT: lock-order m1-before-m2, reviewed order.\n    let h = m2.lock();\n}\n\
                   fn b() {\n    let g = m2.lock();\n    // LINT: lock-order m2-before-m1, reviewed order.\n    let h = m1.lock();\n}\n";
        assert!(lint_source(&ctx("net"), src).is_empty());
    }

    #[test]
    fn reacquiring_the_same_lock_is_flagged() {
        let src = "fn a() { let g = m.lock(); let h = m.lock(); }\n";
        let v = lint_source(&ctx("net"), src);
        assert_eq!(rules_hit(&v), ["lock-order"]);
        assert!(v[0].message.contains("re-acquiring"));
    }

    #[test]
    fn blocking_send_under_a_live_guard_is_flagged() {
        let src = "fn a() { let g = m.lock(); tx.send(1); }\n";
        let v = lint_source(&ctx("net"), src);
        assert_eq!(rules_hit(&v), ["lock-order"]);
        assert!(v[0].message.contains("blocking `send`"));
    }

    #[test]
    fn send_after_a_temporary_guard_is_clean() {
        // The guard dies at its statement's end; the send is safe.
        let src = "fn a() { m.lock().push(1); tx.send(1); }\n";
        assert!(lint_source(&ctx("net"), src).is_empty());
    }

    #[test]
    fn send_after_drop_is_clean() {
        let src = "fn a() { let g = m.lock(); drop(g); tx.send(1); }\n";
        assert!(lint_source(&ctx("net"), src).is_empty());
    }

    #[test]
    fn cross_file_cycles_surface_from_merged_edges() {
        let e1 = LockEdge {
            held: "a".into(),
            acquired: "b".into(),
            file: "crates/net/src/x.rs".into(),
            line: 3,
        };
        let e2 = LockEdge {
            held: "b".into(),
            acquired: "a".into(),
            file: "crates/transport/src/y.rs".into(),
            line: 9,
        };
        assert!(lock_cycle_violations(std::slice::from_ref(&e1)).is_empty());
        let v = lock_cycle_violations(&[e1, e2]);
        assert_eq!(v.len(), 2, "both edges of the cycle are reported");
        assert!(v.iter().any(|v| v.file.contains("transport")));
    }

    #[test]
    fn unbounded_channels_need_attestation() {
        let src = "fn a() { let (tx, rx) = unbounded(); }\n";
        let v = lint_source(&ctx("net"), src);
        assert_eq!(rules_hit(&v), ["unbounded-channel"]);
        let attested = "fn a() {\n    // LINT: allow(unbounded-channel) drained every round by the driver.\n    let (tx, rx) = unbounded();\n}\n";
        assert!(lint_source(&ctx("net"), attested).is_empty());
    }

    #[test]
    fn turbofish_does_not_hide_an_unbounded_channel() {
        let src = "fn a() { let (tx, rx) = crossbeam::channel::unbounded::<Vec<u8>>(); }\n";
        let v = lint_source(&ctx("net"), src);
        assert_eq!(rules_hit(&v), ["unbounded-channel"]);
        // A bare path mention with no call stays clean.
        let no_call = "fn a() { let f = crossbeam::channel::unbounded::<u8>; }\n";
        assert!(lint_source(&ctx("net"), no_call).is_empty());
    }

    #[test]
    fn std_mpsc_channel_counts_as_unbounded() {
        let src = "fn a() { let (tx, rx) = std::sync::mpsc::channel(); }\n";
        let v = lint_source(&ctx("net"), src);
        assert_eq!(rules_hit(&v), ["unbounded-channel"]);
    }

    #[test]
    fn bounded_channels_are_clean() {
        let src = "fn a() { let (tx, rx) = channel::bounded(2); }\n";
        assert!(lint_source(&ctx("net"), src).is_empty());
    }

    #[test]
    fn channel_rules_only_cover_concurrency_crates_and_skip_tests() {
        let src = "fn a() { let (tx, rx) = unbounded(); }\n";
        assert!(lint_source(&ctx("tensor"), src).is_empty());
        let test_mod = "#[cfg(test)]\nmod tests {\n    fn a() { let (tx, rx) = unbounded(); }\n}\n";
        assert!(lint_source(&ctx("net"), test_mod).is_empty());
    }

    #[test]
    fn unjoined_thread_spawn_is_flagged() {
        let src = "fn a() { std::thread::spawn(move || work()); }\n";
        let v = lint_source(&ctx("net"), src);
        assert_eq!(rules_hit(&v), ["detached-thread"]);
    }

    #[test]
    fn joined_handles_are_clean() {
        let src = "fn a() { let h = std::thread::spawn(work); h.join(); }\n";
        assert!(lint_source(&ctx("net"), src).is_empty());
    }

    #[test]
    fn join_at_the_call_site_is_reachable() {
        // The handle escapes through the spawning function's return value
        // and is joined by the caller — the call-edge path.
        let chained = "fn start() -> JoinHandle { std::thread::spawn(work) }\n\
                       fn run() { start().join(); }\n";
        assert!(lint_source(&ctx("net"), chained).is_empty());
        let via_let = "fn start() -> JoinHandle { std::thread::spawn(work) }\n\
                       fn run() { let h = start(); h.join(); }\n";
        assert!(lint_source(&ctx("net"), via_let).is_empty());
    }

    #[test]
    fn scoped_spawns_are_exempt() {
        let src = "fn a() { std::thread::scope(|s| { s.spawn(|| work()); }); }\n";
        assert!(lint_source(&ctx("federated"), src).is_empty());
    }

    #[test]
    fn builder_spawns_need_a_join_too() {
        let src = "fn a() { std::thread::Builder::new().name(n).spawn(work); }\n";
        let v = lint_source(&ctx("net"), src);
        assert_eq!(rules_hit(&v), ["detached-thread"]);
    }

    #[test]
    fn detached_attestation_with_reason_passes() {
        let src = "fn a() {\n    // LINT: allow(detached-thread) reader exits on socket shutdown.\n    std::thread::spawn(move || work());\n}\n";
        assert!(lint_source(&ctx("net"), src).is_empty());
    }
}
