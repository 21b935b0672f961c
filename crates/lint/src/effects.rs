//! Interprocedural function-effect summaries: rules L016–L019.
//!
//! A bottom-up pass over the strongly-connected components of the
//! name-resolved workspace call graph computes, per function, a
//! deterministic summary of three effect kinds:
//!
//! * **panic** — `.unwrap()`/`.expect(..)`, the panic-family macros,
//!   non-constant indexing `x[i]`, and division/remainder by a
//!   non-literal divisor;
//! * **blocking** — the same marker vocabulary the lock rules use
//!   ([`crate::locks::BLOCKING_ANY`]/[`BLOCKING_EMPTY`]), plus condvar
//!   `wait`/`wait_timeout`, the `fsync` family (`sync_all`/`sync_data`)
//!   and std lock acquisitions;
//! * **alloc** — `Vec`/`VecDeque`/`String`/`Box` construction, `vec!` /
//!   `format!`, and `.clone()`/`.to_vec()`/`.to_string()`/`.to_owned()`/
//!   `.collect()`.
//!
//! The summary lattice per (function, kind) is `Option<Cause>`: `None`
//! (no reachable effect) below `Some` (one *witness* — the cheapest
//! direct site, or the call edge to the cheapest summarized callee).
//! Joins only ever move `None → Some` and a cause is never rewritten
//! once assigned, so the fixpoint is monotone and each `Via` link points
//! at a cause that was already final when the link was created — chain
//! reconstruction terminates by construction.
//!
//! Determinism: the function table is sorted by (file, body start), SCCs
//! come from a deterministic iterative Tarjan over sorted edges,
//! components are summarized level-by-level (a level holds SCCs whose
//! callees are all in lower levels) with [`mocktails_pool::Parallelism`]
//! fanning out *within* a level and merging in submission order, and
//! every tie (which direct site, which callee) breaks on a total order
//! (line, message text, callee qualified name). Reports are therefore
//! byte-identical across runs and thread counts.
//!
//! The rules on top:
//!
//! * **L016** — no panic source reachable from `Synthesizer::next`, the
//!   codec decode paths, or the reactor sweep loop; each finding is
//!   anchored at the panic site and carries the full `file:line →
//!   file:line` call chain from the entry point.
//! * **L017** — no blocking effect reachable from the reactor sweep
//!   loop. Allowlisted by construction: the `WakeFlag` idle park and the
//!   nonblocking-socket accept/read/write helpers. Plain `.lock()`
//!   acquisitions are summarized but not reported here — sharded
//!   uncontended mutex hops are the serve design's foundation, and
//!   blocking *while holding* one is already L013's job.
//! * **L018** — allocation effects (direct or one resolved call deep)
//!   inside a CFG loop back-edge scope on the synthesis/codec hot path
//!   and the cache replay kernel:
//!   the machine-readable worklist for the buffer-reuse campaign.
//! * **L019** — `self`-rooted collection growth in the serve crate with
//!   no same-file shrink (`pop`/`remove`/`truncate`/`clear`/`drain`/
//!   `mem::take`/...) of the same field: an unbounded queue on the serve
//!   path.
//!
//! All four honour the `// lint: allow(L016-L019, reason)` directive
//! grammar; filtering happens in [`crate::graph::cross_file`] like every
//! cross-file rule.

use std::collections::{BTreeMap, BTreeSet};

use mocktails_pool::Parallelism;

use crate::cfg::FnCfg;
use crate::graph::{call_sites, Call, CallResolver, FileAnalysis, FileRole};
use crate::lexer::{Token, TokenKind};
use crate::locks::{BLOCKING_ANY, BLOCKING_EMPTY};
use crate::rules::Diagnostic;

/// Macros that unwind.
const PANIC_MACROS: [&str; 4] = ["panic", "todo", "unimplemented", "unreachable"];

/// `fsync`-family calls: durability barriers that stall on the disk.
const SYNC_CALLS: [&str; 2] = ["sync_all", "sync_data"];

/// Empty-arg method calls that allocate.
const ALLOC_METHODS: [&str; 5] = ["clone", "to_vec", "to_string", "to_owned", "collect"];

/// Allocating constructors, as `Type::name` pairs.
const ALLOC_TYPES: [&str; 4] = ["Vec", "VecDeque", "String", "Box"];
const ALLOC_CTORS: [&str; 3] = ["new", "with_capacity", "from"];

/// Collection-growth method names (L019).
const GROWTH_METHODS: [&str; 7] = [
    "push",
    "push_back",
    "push_front",
    "insert",
    "extend",
    "extend_from_slice",
    "append",
];

/// Same-file evidence that a collection is bounded: any of these applied
/// to the same field name caps, evicts or truncates it.
const SHRINK_METHODS: [&str; 9] = [
    "pop",
    "pop_front",
    "pop_back",
    "remove",
    "truncate",
    "clear",
    "drain",
    "evict",
    "retain",
];

/// Method names the effects pass refuses to resolve through the
/// conservative unique-impl rule, because they collide with std
/// prelude/container/iterator methods: a workspace type that happens to
/// be the *only* local impl of `map` or `shutdown` would otherwise
/// capture every `iter().map(..)` and `TcpStream::shutdown(..)` call in
/// the workspace and drag its effects into unrelated summaries. Skipping
/// these edges loses a little recall on genuine local calls spelled the
/// same way; the direct-site scan still sees their bodies' own effects.
const STD_METHOD_COLLISIONS: [&str; 30] = [
    "clear", "clone", "contains", "count", "drain", "extend", "filter", "find", "fold", "get",
    "insert", "iter", "last", "len", "map", "max", "min", "next", "pop", "position", "push",
    "read", "remove", "retain", "rev", "send", "shutdown", "skip", "take", "write",
];

/// Functions the reactor-blocking rule never descends into: the
/// `WakeFlag` idle park (a deliberate, bounded `wait_timeout`) and the
/// nonblocking-socket helpers (`accept`/`read`/`write` on sockets the
/// reactor has put into nonblocking mode; `WouldBlock` returns
/// immediately).
const L017_ALLOWLIST: [(Option<&str>, &str); 4] = [
    (Some("WakeFlag"), "wait_for"),
    (Some("Conn"), "pump_read"),
    (Some("WriteQueue"), "write_to"),
    (None, "accept_burst"),
];

/// The three effect kinds a summary tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EffectKind {
    Panic,
    Blocking,
    Alloc,
}

/// One direct effect site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Site {
    /// 1-based source line.
    line: usize,
    /// Token index of the site, for in-loop containment checks.
    tok: usize,
    /// Which effect.
    kind: EffectKind,
    /// Human-readable description, e.g. "indexing `buf[..]`".
    what: String,
}

/// The cheapest deterministic witness that a function has an effect.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Cause {
    /// The body contains the described site.
    Direct {
        /// The site description.
        what: String,
        /// 1-based line of the site.
        line: usize,
    },
    /// The function calls `callee` (a function-table id with an assigned
    /// cause) at `line`.
    Via {
        /// Function-table id of the callee.
        callee: usize,
        /// 1-based line of the call site.
        line: usize,
    },
}

/// Per-function effect summary: for each kind, `None` (provably — under
/// the conservative call graph — effect-free) or one witness.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Summary {
    panic: Option<Cause>,
    blocking: Option<Cause>,
    alloc: Option<Cause>,
}

impl Summary {
    fn get(&self, kind: EffectKind) -> &Option<Cause> {
        match kind {
            EffectKind::Panic => &self.panic,
            EffectKind::Blocking => &self.blocking,
            EffectKind::Alloc => &self.alloc,
        }
    }

    fn set(&mut self, kind: EffectKind, cause: Cause) {
        let slot = match kind {
            EffectKind::Panic => &mut self.panic,
            EffectKind::Blocking => &mut self.blocking,
            EffectKind::Alloc => &mut self.alloc,
        };
        debug_assert!(slot.is_none(), "causes are write-once");
        *slot = Some(cause);
    }
}

/// One function in the effects analysis.
struct EffFn<'a> {
    /// Index of the defining file.
    file: usize,
    /// CFG and token ranges.
    fc: &'a FnCfg,
    /// Display name: `Type::name` or `name`.
    qual: String,
}

/// Runs the effect-summary engine and the four rules over the analyzed
/// workspace. Returned diagnostics are sorted and deduplicated;
/// directive filtering happens in [`crate::graph::cross_file`].
pub(crate) fn effects_analysis(
    files: &[FileAnalysis],
    parallelism: Parallelism,
) -> Vec<Diagnostic> {
    // 1. The function table, in deterministic (file, body-start) order.
    let mut fns: Vec<EffFn<'_>> = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        if f.role != FileRole::Lint {
            continue;
        }
        for fc in &f.fn_cfgs {
            let qual = match &fc.self_type {
                Some(ty) => format!("{ty}::{}", fc.name),
                None => fc.name.clone(),
            };
            fns.push(EffFn { file: fi, fc, qual });
        }
    }
    fns.sort_by_key(|i| (i.file, i.fc.body.0));

    // 2. Call edges through the shared resolver, keeping the first call
    // line per (caller, callee) edge for chain rendering.
    let resolver = CallResolver::new(
        fns.iter()
            .map(|i| (i.fc.name.as_str(), i.fc.self_type.as_deref(), i.file)),
    );
    let mut edges: Vec<BTreeMap<usize, usize>> = vec![BTreeMap::new(); fns.len()];
    for (id, info) in fns.iter().enumerate() {
        let tokens = &files[info.file].tokens;
        for (i, name) in call_sites(tokens, info.fc.body) {
            for c in effect_callees(&resolver, tokens, i, name, info) {
                if c != id {
                    edges[id].entry(c).or_insert(tokens[i].line);
                }
            }
        }
    }

    // 3. Direct effect sites, one independent token scan per function —
    // the expensive part, fanned out over the pool.
    let ids: Vec<usize> = (0..fns.len()).collect();
    let sites: Vec<Vec<Site>> = parallelism.map(&ids, |&id| {
        let info = &fns[id];
        direct_sites(&files[info.file], info.fc.body)
    });

    // 4. SCC condensation (iterative Tarjan; components come out in
    // reverse topological order: callees before callers).
    let sccs = tarjan_sccs(&edges);
    let mut scc_of = vec![0usize; fns.len()];
    for (s, members) in sccs.iter().enumerate() {
        for &m in members {
            scc_of[m] = s;
        }
    }

    // 5. Bottom-up summaries, parallel per-SCC within each topological
    // level. A component's level is one above its deepest callee
    // component, so everything a level needs is already summarized.
    let mut level = vec![0usize; sccs.len()];
    for (s, members) in sccs.iter().enumerate() {
        let mut l = 0;
        for &m in members {
            for &c in edges[m].keys() {
                if scc_of[c] != s {
                    l = l.max(level[scc_of[c]] + 1);
                }
            }
        }
        level[s] = l;
    }
    let max_level = level.iter().copied().max().unwrap_or(0);
    let mut summaries: Vec<Summary> = vec![Summary::default(); fns.len()];
    for l in 0..=max_level {
        let layer: Vec<usize> = (0..sccs.len()).filter(|&s| level[s] == l).collect();
        let results: Vec<Vec<(usize, Summary)>> = parallelism.map(&layer, |&s| {
            summarize_scc(&sccs[s], &edges, &sites, &summaries, &fns)
        });
        for scc_summaries in results {
            for (id, summary) in scc_summaries {
                summaries[id] = summary;
            }
        }
    }

    // 6. The rules.
    let mut diags = Vec::new();
    diags.extend(l016_panic_reachability(files, &fns, &edges, &sites));
    diags.extend(l017_reactor_blocking(files, &fns, &edges, &sites));
    diags.extend(l018_hot_loop_alloc(
        files, &fns, &sites, &summaries, &resolver,
    ));
    diags.extend(l019_unbounded_growth(files, &fns));
    diags.sort();
    diags.dedup();
    diags
}

/// The effects pass's call resolution: the shared [`CallResolver`]
/// policy, minus method names that collide with std
/// ([`STD_METHOD_COLLISIONS`]), plus `Self::name` paths rebound to the
/// caller's impl type (the shared resolver sees the literal `Self` and
/// finds nothing).
fn effect_callees(
    resolver: &CallResolver<'_>,
    tokens: &[Token],
    i: usize,
    name: &str,
    caller: &EffFn<'_>,
) -> Vec<usize> {
    let prev = |n: usize| i.checked_sub(n).map(|j| &tokens[j].kind);
    if matches!(prev(1), Some(k) if k.is_op("::"))
        && matches!(prev(2), Some(TokenKind::Ident(ty)) if ty == "Self")
    {
        return match caller.fc.self_type.as_deref() {
            Some(ty) => resolver.resolve(
                &Call::Qualified(ty.to_string(), name.to_string()),
                caller.file,
            ),
            None => Vec::new(),
        };
    }
    let is_method = matches!(prev(1), Some(k) if k.is_punct('.'));
    if is_method && STD_METHOD_COLLISIONS.contains(&name) {
        return Vec::new();
    }
    resolver.resolve_callees(tokens, i, name, caller.file)
}

// ---------------------------------------------------------------------------
// Direct effect extraction
// ---------------------------------------------------------------------------

/// Scans one body token range for direct effect sites, skipping
/// test-scoped tokens.
fn direct_sites(f: &FileAnalysis, body: (usize, usize)) -> Vec<Site> {
    let tokens = &f.tokens;
    let mut out = Vec::new();
    let end = body.1.min(tokens.len());
    for i in body.0..end {
        if f.in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        let t = &tokens[i];
        let line = t.line;
        let prev = i.checked_sub(1).map(|j| &tokens[j].kind);
        let next = tokens.get(i + 1).map(|t| &t.kind);
        match &t.kind {
            TokenKind::Ident(name) => {
                let is_method = matches!(prev, Some(k) if k.is_punct('.'));
                let is_call = matches!(next, Some(k) if k.is_punct('('));
                let is_macro = matches!(next, Some(k) if k.is_punct('!'));
                let empty = is_call
                    && matches!(tokens.get(i + 2).map(|t| &t.kind), Some(k) if k.is_punct(')'));
                let defines = matches!(prev, Some(TokenKind::Ident(kw)) if kw == "fn");
                if defines {
                    continue;
                }

                // Panic sources.
                if is_method && is_call && (name == "unwrap" || name == "expect") {
                    out.push(Site {
                        line,
                        tok: i,
                        kind: EffectKind::Panic,
                        what: format!("`.{name}()`"),
                    });
                } else if is_macro && PANIC_MACROS.contains(&name.as_str()) {
                    out.push(Site {
                        line,
                        tok: i,
                        kind: EffectKind::Panic,
                        what: format!("`{name}!`"),
                    });
                }

                // Blocking markers (the lock rules' vocabulary, plus
                // condvar waits, fsync and std lock acquisitions).
                if is_call && BLOCKING_ANY.contains(&name.as_str()) {
                    out.push(Site {
                        line,
                        tok: i,
                        kind: EffectKind::Blocking,
                        what: format!("`{name}`"),
                    });
                } else if is_method && is_call && empty && BLOCKING_EMPTY.contains(&name.as_str()) {
                    out.push(Site {
                        line,
                        tok: i,
                        kind: EffectKind::Blocking,
                        what: format!("`{name}()`"),
                    });
                } else if is_method && is_call && SYNC_CALLS.contains(&name.as_str()) {
                    out.push(Site {
                        line,
                        tok: i,
                        kind: EffectKind::Blocking,
                        what: format!("`{name}` (fsync)"),
                    });
                } else if is_method
                    && is_call
                    && !empty
                    && (name == "wait" || name == "wait_timeout")
                {
                    out.push(Site {
                        line,
                        tok: i,
                        kind: EffectKind::Blocking,
                        what: format!("condvar `{name}`"),
                    });
                } else if is_method
                    && is_call
                    && empty
                    && matches!(name.as_str(), "lock" | "read" | "write")
                {
                    out.push(Site {
                        line,
                        tok: i,
                        kind: EffectKind::Blocking,
                        what: format!("`.{name}()` acquisition"),
                    });
                }

                // Allocation sites.
                if is_method && is_call && empty && ALLOC_METHODS.contains(&name.as_str()) {
                    out.push(Site {
                        line,
                        tok: i,
                        kind: EffectKind::Alloc,
                        what: format!("`.{name}()`"),
                    });
                } else if is_macro && (name == "vec" || name == "format") {
                    out.push(Site {
                        line,
                        tok: i,
                        kind: EffectKind::Alloc,
                        what: format!("`{name}!`"),
                    });
                } else if is_call
                    && ALLOC_CTORS.contains(&name.as_str())
                    && matches!(prev, Some(k) if k.is_op("::"))
                {
                    if let Some(TokenKind::Ident(ty)) = i.checked_sub(2).map(|j| &tokens[j].kind) {
                        if ALLOC_TYPES.contains(&ty.as_str()) {
                            out.push(Site {
                                line,
                                tok: i,
                                kind: EffectKind::Alloc,
                                what: format!("`{ty}::{name}`"),
                            });
                        }
                    }
                }
            }
            // Non-constant indexing `x[i]`: a postfix `[` (receiver is an
            // identifier, `)` or `]`) whose bracket holds neither a range
            // nor a lone literal.
            TokenKind::Punct('[') => {
                let postfix = matches!(
                    prev,
                    Some(TokenKind::Ident(_)) | Some(TokenKind::Punct(')' | ']'))
                );
                if postfix && indexes_non_constant(tokens, i) {
                    let recv = match prev {
                        Some(TokenKind::Ident(name)) => name.as_str(),
                        _ => "<expr>",
                    };
                    out.push(Site {
                        line,
                        tok: i,
                        kind: EffectKind::Panic,
                        what: format!("indexing `{recv}[..]`"),
                    });
                }
            }
            // Division / remainder by a non-literal divisor panics on
            // zero even in release builds.
            TokenKind::Punct(c @ ('/' | '%')) => {
                let binary = matches!(
                    prev,
                    Some(TokenKind::Ident(_))
                        | Some(TokenKind::Lit(_))
                        | Some(TokenKind::Punct(')' | ']'))
                );
                let float = matches!(prev, Some(TokenKind::FloatLit(_)))
                    || matches!(next, Some(TokenKind::FloatLit(_)));
                let literal_divisor = matches!(next, Some(TokenKind::Lit(_)));
                if binary && !float && !literal_divisor {
                    out.push(Site {
                        line,
                        tok: i,
                        kind: EffectKind::Panic,
                        what: format!("`{c}` by a non-constant divisor"),
                    });
                }
            }
            _ => {}
        }
    }
    out.sort();
    out
}

/// True if the bracket group opening at `tokens[i]` is an index that can
/// panic: not a range (`[..]`, `[a..b]` slices are a different shape of
/// risk, tracked separately if ever needed) and not a lone literal
/// (`[0]` — a constant index the surrounding code pins).
fn indexes_non_constant(tokens: &[Token], i: usize) -> bool {
    let mut depth = 0usize;
    let mut j = i;
    let mut content = 0usize;
    let mut lone_literal = false;
    while let Some(t) = tokens.get(j) {
        match &t.kind {
            TokenKind::Punct('[' | '(' | '{') => depth += 1,
            TokenKind::Punct(']' | ')' | '}') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            TokenKind::Op(".." | "..=") if depth == 1 => return false,
            kind if depth == 1 => {
                content += 1;
                lone_literal = content == 1 && kind.is_lit();
            }
            _ => {}
        }
        j += 1;
    }
    content > 0 && !lone_literal
}

// ---------------------------------------------------------------------------
// SCC condensation and summaries
// ---------------------------------------------------------------------------

/// Iterative Tarjan over the call graph. Deterministic: nodes are visited
/// in index order and edges in sorted-key order, so the component list —
/// in reverse topological order, callees first — is a pure function of
/// the graph.
fn tarjan_sccs(edges: &[BTreeMap<usize, usize>]) -> Vec<Vec<usize>> {
    let n = edges.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    // Explicit DFS frames: (node, iterator position into its sorted
    // callee list).
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut pos)) = frames.last_mut() {
            if *pos == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            let callees: Vec<usize> = edges[v].keys().copied().collect();
            if *pos < callees.len() {
                let w = callees[*pos];
                *pos += 1;
                if index[w] == usize::MAX {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&mut (parent, _)) = frames.last_mut() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut component = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        component.push(w);
                        if w == v {
                            break;
                        }
                    }
                    component.sort_unstable();
                    sccs.push(component);
                }
            }
        }
    }
    sccs
}

/// Summarizes one SCC given final summaries for every lower component.
/// Members are iterated in sorted order to a fixpoint; a cause is
/// assigned at most once per (member, kind), so the loop runs at most
/// `3 * |scc| + 1` rounds.
fn summarize_scc(
    members: &[usize],
    edges: &[BTreeMap<usize, usize>],
    sites: &[Vec<Site>],
    done: &[Summary],
    fns: &[EffFn<'_>],
) -> Vec<(usize, Summary)> {
    let member_set: BTreeSet<usize> = members.iter().copied().collect();
    let mut local: BTreeMap<usize, Summary> = members
        .iter()
        .map(|&m| {
            let mut s = Summary::default();
            for kind in [EffectKind::Panic, EffectKind::Blocking, EffectKind::Alloc] {
                if let Some(site) = sites[m].iter().filter(|s| s.kind == kind).min() {
                    s.set(
                        kind,
                        Cause::Direct {
                            what: site.what.clone(),
                            line: site.line,
                        },
                    );
                }
            }
            (m, s)
        })
        .collect();

    let mut changed = true;
    while changed {
        changed = false;
        for &m in members {
            for kind in [EffectKind::Panic, EffectKind::Blocking, EffectKind::Alloc] {
                if local[&m].get(kind).is_some() {
                    continue;
                }
                // The lexicographically-smallest summarized callee gives
                // the witness, mirroring the taint tie-break.
                let candidate = edges[m]
                    .iter()
                    .filter(|&(&c, _)| {
                        let summary = if member_set.contains(&c) {
                            &local[&c]
                        } else {
                            &done[c]
                        };
                        summary.get(kind).is_some()
                    })
                    .min_by_key(|&(&c, _)| (&fns[c].qual, c));
                if let Some((&c, &line)) = candidate {
                    local
                        .get_mut(&m)
                        .expect("member is in local") // lint: allow(L001, key set is exactly `members`, inserted above)
                        .set(kind, Cause::Via { callee: c, line });
                    changed = true;
                }
            }
        }
    }
    local.into_iter().collect()
}

// ---------------------------------------------------------------------------
// Entry points and chains
// ---------------------------------------------------------------------------

/// The L016 entry points: the synthesis iterator, the codec decode
/// surface, and the reactor sweep loop (which drives the whole conn
/// state machine).
fn l016_entries(files: &[FileAnalysis], fns: &[EffFn<'_>]) -> Vec<usize> {
    let mut out = Vec::new();
    for (id, info) in fns.iter().enumerate() {
        let path = files[info.file].path.as_str();
        let name = info.fc.name.as_str();
        let synth = info.fc.self_type.as_deref() == Some("Synthesizer")
            && (name == "next" || name == "next_request");
        let decode = (path.contains("trace/src/codec.rs")
            || path.contains("trace/src/stream.rs")
            || path.contains("core/src/profile/codec.rs"))
            && (name.starts_with("read") || name == "decode");
        if synth || decode || is_reactor_sweep(path, name) {
            out.push(id);
        }
    }
    out
}

fn is_reactor_sweep(path: &str, name: &str) -> bool {
    path.contains("serve/src/reactor.rs") && name == "run"
}

/// Breadth-first reachability from `entry` over the call edges, skipping
/// `pruned` functions. Returns the BFS parent of each reached function,
/// with `entry` mapped to itself.
fn reach_from(
    entry: usize,
    edges: &[BTreeMap<usize, usize>],
    pruned: &BTreeSet<usize>,
) -> BTreeMap<usize, usize> {
    let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
    parent.insert(entry, entry);
    let mut queue = std::collections::VecDeque::from([entry]);
    while let Some(v) = queue.pop_front() {
        for &c in edges[v].keys() {
            if pruned.contains(&c) || parent.contains_key(&c) {
                continue;
            }
            parent.insert(c, v);
            queue.push_back(c);
        }
    }
    parent
}

/// Renders the `file:line → file:line` chain from `entry` to a site in
/// `target`, using BFS parents: the entry's declaration line, each call
/// site along the path, then the site itself.
fn chain_string(
    entry: usize,
    target: usize,
    site_line: usize,
    parent: &BTreeMap<usize, usize>,
    edges: &[BTreeMap<usize, usize>],
    fns: &[EffFn<'_>],
    files: &[FileAnalysis],
) -> String {
    let mut path_ids = vec![target];
    let mut v = target;
    while v != entry {
        v = parent[&v];
        path_ids.push(v);
    }
    path_ids.reverse();
    let mut steps = vec![format!(
        "{}:{}",
        files[fns[entry].file].path, fns[entry].fc.line
    )];
    for pair in path_ids.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        steps.push(format!("{}:{}", files[fns[a].file].path, edges[a][&b]));
    }
    steps.push(format!("{}:{}", files[fns[target].file].path, site_line));
    steps.dedup();
    steps.join(" \u{2192} ")
}

// ---------------------------------------------------------------------------
// L016: panic reachability
// ---------------------------------------------------------------------------

fn l016_panic_reachability(
    files: &[FileAnalysis],
    fns: &[EffFn<'_>],
    edges: &[BTreeMap<usize, usize>],
    sites: &[Vec<Site>],
) -> Vec<Diagnostic> {
    let mut entries = l016_entries(files, fns);
    entries.sort_by(|&a, &b| (&fns[a].qual, a).cmp(&(&fns[b].qual, b)));
    let pruned = BTreeSet::new();
    // One diagnostic per distinct panic site; the first (smallest-qual)
    // entry that reaches it supplies the chain.
    let mut seen: BTreeSet<(usize, usize, String)> = BTreeSet::new();
    let mut out = Vec::new();
    for &entry in &entries {
        let parent = reach_from(entry, edges, &pruned);
        for &target in parent.keys() {
            for site in sites[target].iter().filter(|s| s.kind == EffectKind::Panic) {
                let key = (fns[target].file, site.line, site.what.clone());
                if !seen.insert(key) {
                    continue;
                }
                let chain = chain_string(entry, target, site.line, &parent, edges, fns, files);
                out.push(Diagnostic {
                    file: files[fns[target].file].path.clone(),
                    line: site.line,
                    rule: "L016",
                    message: format!(
                        "panic source {} reachable from `{}`: {chain}; return a typed error or waive with the invariant that makes it impossible",
                        site.what, fns[entry].qual
                    ),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// L017: reactor blocking
// ---------------------------------------------------------------------------

fn l017_reactor_blocking(
    files: &[FileAnalysis],
    fns: &[EffFn<'_>],
    edges: &[BTreeMap<usize, usize>],
    sites: &[Vec<Site>],
) -> Vec<Diagnostic> {
    let entries: Vec<usize> = fns
        .iter()
        .enumerate()
        .filter(|(_, i)| is_reactor_sweep(&files[i.file].path, &i.fc.name))
        .map(|(id, _)| id)
        .collect();
    let pruned: BTreeSet<usize> = fns
        .iter()
        .enumerate()
        .filter(|(_, i)| {
            L017_ALLOWLIST
                .iter()
                .any(|(ty, name)| *ty == i.fc.self_type.as_deref() && *name == i.fc.name)
        })
        .map(|(id, _)| id)
        .collect();
    let mut seen: BTreeSet<(usize, usize, String)> = BTreeSet::new();
    let mut out = Vec::new();
    for &entry in &entries {
        let parent = reach_from(entry, edges, &pruned);
        for &target in parent.keys() {
            for site in sites[target]
                .iter()
                .filter(|s| s.kind == EffectKind::Blocking)
            {
                // Plain lock acquisitions are summarized but not
                // reported: bounded single-shard hops are the design,
                // and holding one while blocking is L013's finding.
                if site.what.ends_with("acquisition") {
                    continue;
                }
                let key = (fns[target].file, site.line, site.what.clone());
                if !seen.insert(key) {
                    continue;
                }
                let chain = chain_string(entry, target, site.line, &parent, edges, fns, files);
                out.push(Diagnostic {
                    file: files[fns[target].file].path.clone(),
                    line: site.line,
                    rule: "L017",
                    message: format!(
                        "blocking {} reachable from the reactor sweep: {chain}; the event thread must stay nonblocking — hand the work to the pool or waive with a reason",
                        site.what
                    ),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// L018: hot-loop allocation
// ---------------------------------------------------------------------------

/// Files on the synthesis/codec hot path and the cache replay kernel
/// whose loops L018 polices.
fn l018_path(path: &str) -> bool {
    [
        "core/src/synth",
        "core/src/model",
        "core/src/profile/codec",
        "trace/src/codec",
        "trace/src/stream",
        "trace/src/fingerprint",
        "cache/src",
        "dram/src",
        "baselines/src/stm",
    ]
    .iter()
    .any(|p| path.contains(p))
}

fn l018_hot_loop_alloc(
    files: &[FileAnalysis],
    fns: &[EffFn<'_>],
    sites: &[Vec<Site>],
    summaries: &[Summary],
    resolver: &CallResolver<'_>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (id, info) in fns.iter().enumerate() {
        let f = &files[info.file];
        if !l018_path(&f.path) {
            continue;
        }
        // Statement token ranges inside any loop-body scope.
        let cfg = &info.fc.cfg;
        let loop_scopes: BTreeSet<_> = cfg
            .blocks
            .iter()
            .flat_map(|b| b.succs.iter().filter_map(|e| e.back))
            .collect();
        if loop_scopes.is_empty() {
            continue;
        }
        let mut in_loop: Vec<(usize, usize)> = Vec::new();
        for block in &cfg.blocks {
            for stmt in &block.stmts {
                if loop_scopes
                    .iter()
                    .any(|&ls| cfg.scope_contains(ls, stmt.scope))
                {
                    in_loop.push(stmt.range);
                }
            }
        }
        let contained = |tok: usize| in_loop.iter().any(|&(s, e)| tok >= s && tok < e);

        // Direct allocation sites inside a loop.
        for site in sites[id].iter().filter(|s| s.kind == EffectKind::Alloc) {
            if contained(site.tok) {
                out.push(Diagnostic {
                    file: f.path.clone(),
                    line: site.line,
                    rule: "L018",
                    message: format!(
                        "allocation {} inside a hot loop of `{}`; hoist a reusable buffer out of the loop or waive with a reason",
                        site.what, info.qual
                    ),
                });
            }
        }

        // Calls inside a loop to functions that transitively allocate.
        for &(start, end) in &in_loop {
            for (i, name) in call_sites(&f.tokens, (start, end)) {
                for c in effect_callees(resolver, &f.tokens, i, name, info) {
                    if c == id || summaries[c].alloc.is_none() {
                        continue;
                    }
                    let chain = cause_chain(c, summaries, fns, files);
                    out.push(Diagnostic {
                        file: f.path.clone(),
                        line: f.tokens[i].line,
                        rule: "L018",
                        message: format!(
                            "call to `{}` inside a hot loop of `{}` transitively allocates: {chain}; hoist a reusable buffer or waive with a reason",
                            fns[c].qual, info.qual
                        ),
                    });
                }
            }
        }
    }
    out
}

/// Renders the `file:line → file:line` witness chain of a summarized
/// allocation cause, following write-once `Via` links (terminates by
/// construction; capped defensively).
fn cause_chain(
    start: usize,
    summaries: &[Summary],
    fns: &[EffFn<'_>],
    files: &[FileAnalysis],
) -> String {
    let mut steps = Vec::new();
    let mut cur = start;
    for _ in 0..32 {
        match &summaries[cur].alloc {
            Some(Cause::Direct { what, line }) => {
                steps.push(format!("{}:{} ({what})", files[fns[cur].file].path, line));
                break;
            }
            Some(Cause::Via { callee, line }) => {
                steps.push(format!("{}:{}", files[fns[cur].file].path, line));
                cur = *callee;
            }
            None => break,
        }
    }
    steps.join(" \u{2192} ")
}

// ---------------------------------------------------------------------------
// L019: unbounded growth on the serve path
// ---------------------------------------------------------------------------

fn l019_unbounded_growth(files: &[FileAnalysis], fns: &[EffFn<'_>]) -> Vec<Diagnostic> {
    // Same-file shrink evidence: field names that are ever capped.
    let mut shrunk: Vec<BTreeSet<String>> = vec![BTreeSet::new(); files.len()];
    for (fi, f) in files.iter().enumerate() {
        if f.crate_name != "serve" {
            continue;
        }
        for (i, t) in f.tokens.iter().enumerate() {
            let Some(name) = t.kind.ident() else { continue };
            // `field.pop_front(...)` and friends.
            if SHRINK_METHODS.contains(&name)
                && matches!(i.checked_sub(1).map(|j| &f.tokens[j].kind), Some(k) if k.is_punct('.'))
            {
                if let Some(TokenKind::Ident(field)) = i.checked_sub(2).map(|j| &f.tokens[j].kind) {
                    shrunk[fi].insert(field.clone());
                }
            }
            // `mem::take(&mut self.field)` / `take(&mut inner.field)`.
            if name == "take"
                && matches!(f.tokens.get(i + 1).map(|t| &t.kind), Some(k) if k.is_punct('('))
            {
                for j in i + 2..(i + 8).min(f.tokens.len()) {
                    if let TokenKind::Ident(field) = &f.tokens[j].kind {
                        if field != "mut" && field != "self" {
                            shrunk[fi].insert(field.clone());
                        }
                    }
                    if f.tokens[j].kind.is_punct(')') {
                        break;
                    }
                }
            }
        }
    }

    let mut out = Vec::new();
    for info in fns {
        let f = &files[info.file];
        if f.crate_name != "serve" {
            continue;
        }
        let (start, end) = info.fc.body;
        for i in start..end.min(f.tokens.len()) {
            if f.in_test.get(i).copied().unwrap_or(false) {
                continue;
            }
            let Some(name) = f.tokens[i].kind.ident() else {
                continue;
            };
            if !GROWTH_METHODS.contains(&name)
                || !matches!(f.tokens.get(i + 1).map(|t| &t.kind), Some(k) if k.is_punct('('))
            {
                continue;
            }
            // Walk the receiver chain back; only `self`-rooted fields are
            // collections the type owns long-term.
            let Some((root, field)) = self_rooted_receiver(&f.tokens, i) else {
                continue;
            };
            if shrunk[info.file].contains(&field) {
                continue;
            }
            out.push(Diagnostic {
                file: f.path.clone(),
                line: f.tokens[i].line,
                rule: "L019",
                message: format!(
                    "`{root}.{field}.{name}(..)` grows on the serve path with no same-file cap/evict/truncate of `{field}`; bound it or waive with the mechanism that does",
                ),
            });
        }
    }
    out
}

/// If the call at `tokens[i]` is a method on a `self`-rooted field chain
/// (`self.a.b.push(..)`), returns ("self", last field name).
fn self_rooted_receiver(tokens: &[Token], i: usize) -> Option<(String, String)> {
    // tokens[i] is the method name; walk `.field` pairs leftwards.
    let mut j = i;
    let mut last_field: Option<String> = None;
    loop {
        if !matches!(j.checked_sub(1).map(|k| &tokens[k].kind), Some(k) if k.is_punct('.')) {
            return None;
        }
        let prev = j.checked_sub(2).map(|k| &tokens[k].kind)?;
        match prev {
            TokenKind::Ident(name) if name == "self" => {
                return last_field.map(|f| ("self".to_string(), f));
            }
            TokenKind::Ident(name) => {
                if last_field.is_none() {
                    last_field = Some(name.clone());
                }
                j -= 2;
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tarjan_orders_callees_first() {
        // 0 -> 1 -> 2, with 1 <-> 3 a cycle.
        let mut edges: Vec<BTreeMap<usize, usize>> = vec![BTreeMap::new(); 4];
        edges[0].insert(1, 10);
        edges[1].insert(2, 20);
        edges[1].insert(3, 30);
        edges[3].insert(1, 40);
        let sccs = tarjan_sccs(&edges);
        assert_eq!(sccs, vec![vec![2], vec![1, 3], vec![0]]);
    }

    #[test]
    fn non_constant_index_detection() {
        let lexed = crate::lexer::lex("fn f() { a[i]; b[0]; c[..]; d[1..n]; e[x + 1]; }");
        let hits: Vec<usize> = (0..lexed.tokens.len())
            .filter(|&i| {
                lexed.tokens[i].kind.is_punct('[') && indexes_non_constant(&lexed.tokens, i)
            })
            .collect();
        // `a[i]` and `e[x + 1]` only.
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn self_rooted_receiver_walks_chains() {
        let lexed =
            crate::lexer::lex("fn f(&mut self) { self.q.push(x); self.a.b.push(y); q.push(z); }");
        let mut found = Vec::new();
        for (i, t) in lexed.tokens.iter().enumerate() {
            if t.kind.ident() == Some("push") {
                found.push(self_rooted_receiver(&lexed.tokens, i));
            }
        }
        assert_eq!(
            found,
            vec![
                Some(("self".into(), "q".into())),
                Some(("self".into(), "b".into())),
                None
            ]
        );
    }
}
