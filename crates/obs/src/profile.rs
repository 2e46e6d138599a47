//! Trace analysis: DAG reconstruction and critical-path profiling.
//!
//! This module is the library behind the `ppm-trace` binary. It ingests
//! the JSONL trace streams written by [`crate::SpanSink`] (one per
//! process: coordinator plus any `.shard<k>` workers), keeps their event
//! records as a cross-process timeline, rebuilds the capsule DAG from
//! the spans' parent edges, and computes the paper's cost quantities on
//! the *observed* run:
//!
//! - **W** — observed work, the sum of committed capsule work in
//!   deterministic external-transfer units;
//! - **D** — observed depth/span, the longest parent-weighted path;
//! - **parallelism** `W/D` — how much the DAG could have used `P_A`
//!   live processors;
//! - **fault-wasted work** — work spent on executions that did not end
//!   up being the committed, exactly-once run of their frame (capsule
//!   re-executions after a crash or adoption), as a ratio of all work.
//!
//! Plus attribution: per-capsule and per-phase work breakdowns,
//! per-shard splits, the critical path itself, and a folded-stacks
//! rendering consumable by standard flamegraph tooling.
//!
//! The files are a flat, restricted JSON subset produced by our own
//! writer, so parsing is a hand-rolled field scanner — no external
//! dependencies (the build is offline).

use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// One recorded execution of a traced capsule (one `run_capsule`
/// invocation; soft-fault restarts stay inside a single execution).
#[derive(Debug, Clone)]
pub struct SpanExec {
    /// Process-unique span id (epoch and origin bits + sequence).
    pub id: u64,
    /// Parent span id (0 for a root).
    pub parent: u64,
    /// Persistent frame address the capsule ran from (0 = volatile).
    pub frame: u64,
    /// Span that wrote that frame (0 = unknown, as in traces that
    /// predate the field).
    pub writer: u64,
    /// Capsule name (the DSL `alg/phase` convention).
    pub name: String,
    /// Executing processor within its process.
    pub proc: usize,
    /// Emitting process: 0 = coordinator / single process, shard+1 for
    /// cluster workers.
    pub origin: u32,
    /// Wall-clock start, microseconds since the UNIX epoch.
    pub start_us: u64,
    /// Committed work in external-transfer units (0 if interrupted).
    pub work: u64,
    /// Wall-clock duration in microseconds (0 if interrupted).
    pub dur_us: u64,
    /// Whether an end record was seen. A start without an end is an
    /// *interrupted* execution — the processor died mid-capsule.
    pub completed: bool,
}

/// One event record (see [`crate::TraceKind`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Wall-clock time, microseconds since the UNIX epoch — the spans'
    /// clock, comparable across the processes of one run.
    pub t_us: u64,
    /// The kind's stable name ([`crate::TraceKind::name`]).
    pub kind: String,
    /// Emitting process: 0 = coordinator / single process, shard+1 for
    /// cluster workers.
    pub origin: u32,
    /// Shard the event is about, when it is about one.
    pub shard: Option<u32>,
    /// Processor the event is about, when it is about one.
    pub proc: Option<u32>,
    /// Free-form detail, unescaped.
    pub detail: String,
}

/// A parsed set of trace files, ready for analysis.
#[derive(Debug, Default)]
pub struct TraceSet {
    /// Every execution seen across all ingested files.
    pub spans: Vec<SpanExec>,
    /// Every event seen across all ingested files, in file order.
    pub events: Vec<Event>,
    /// Number of files ingested.
    pub files: usize,
}

impl TraceSet {
    /// Ingests one trace file, skipping lines that are not records.
    pub fn ingest_file(&mut self, path: &Path) -> std::io::Result<()> {
        let text = std::fs::read_to_string(path)?;
        self.ingest_str(&text);
        self.files += 1;
        Ok(())
    }

    /// Ingests trace records from raw JSONL text (one object per line).
    pub fn ingest_str(&mut self, text: &str) {
        let mut origin = 0u32;
        // Open executions in this file, by id. End records always land
        // in the same file as their start (same process, same sink).
        let mut open: HashMap<u64, usize> = HashMap::new();
        for line in text.lines() {
            match field_str(line, "k") {
                Some("m") => {
                    origin = field_u64(line, "origin").unwrap_or(0) as u32;
                }
                Some("s") => {
                    let (Some(id), Some(name)) = (field_u64(line, "id"), field_str(line, "c"))
                    else {
                        continue;
                    };
                    open.insert(id, self.spans.len());
                    self.spans.push(SpanExec {
                        id,
                        parent: field_u64(line, "p").unwrap_or(0),
                        frame: field_u64(line, "f").unwrap_or(0),
                        writer: field_u64(line, "fw").unwrap_or(0),
                        name: name.to_string(),
                        proc: field_u64(line, "pr").unwrap_or(0) as usize,
                        origin,
                        start_us: field_u64(line, "t").unwrap_or(0),
                        work: 0,
                        dur_us: 0,
                        completed: false,
                    });
                }
                Some("e") => {
                    let Some(id) = field_u64(line, "id") else {
                        continue;
                    };
                    if let Some(&at) = open.get(&id) {
                        let s = &mut self.spans[at];
                        s.work = field_u64(line, "w").unwrap_or(0);
                        s.dur_us = field_u64(line, "d").unwrap_or(0);
                        s.completed = true;
                    }
                }
                Some("ev") => {
                    let Some(kind) = field_str(line, "kind") else {
                        continue;
                    };
                    self.events.push(Event {
                        t_us: field_u64(line, "t").unwrap_or(0),
                        kind: kind.to_string(),
                        origin,
                        shard: field_u64(line, "shard").map(|s| s as u32),
                        proc: field_u64(line, "pr").map(|p| p as u32),
                        detail: field_escaped(line, "detail").unwrap_or_default(),
                    });
                }
                _ => {}
            }
        }
    }

    /// Runs the full analysis over the ingested spans.
    pub fn analyze(&self) -> Analysis {
        Analysis::of(self)
    }
}

/// Writes `<base>.manifest` for a cluster of `shards` workers: one line
/// per trace stream of the run — the coordinator's, then each shard's —
/// as a path relative to the manifest's own directory (`#` lines are
/// comments). [`expand_manifest`] reads it back.
pub fn write_manifest(base: &Path, shards: usize) -> std::io::Result<()> {
    let mut text = String::from("# ppm trace manifest (consumed by ppm-trace)\n");
    let streams = std::iter::once(crate::SpanSink::path_for(base))
        .chain((0..shards).map(|s| crate::SpanSink::shard_path_for(base, s)));
    for stream in streams {
        if let Some(name) = stream.file_name() {
            text.push_str(&name.to_string_lossy());
            text.push('\n');
        }
    }
    let mut os = base.as_os_str().to_os_string();
    os.push(".manifest");
    std::fs::write(PathBuf::from(os), text)
}

/// Expands a trace manifest (see [`write_manifest`]) into the file set
/// it names. Missing listed files are skipped — a worker killed before
/// it attached never opened its stream.
pub fn expand_manifest(manifest: &Path) -> std::io::Result<Vec<PathBuf>> {
    let base = manifest.parent().map(Path::to_path_buf).unwrap_or_default();
    let text = std::fs::read_to_string(manifest)?;
    Ok(text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| base.join(l))
        .filter(|p| p.exists())
        .collect())
}

/// The computed profile of one run's span DAG.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Observed work W: total committed capsule work across every
    /// completed execution (re-executions included — they were done).
    pub work: u64,
    /// Observed depth D: the longest parent-weighted path through the
    /// completed executions.
    pub depth: u64,
    /// `W/D` — the run's available parallelism.
    pub parallelism: f64,
    /// All executions seen (completed + interrupted).
    pub spans_total: usize,
    /// Executions with a commit (end record).
    pub completed: usize,
    /// Executions cut off mid-capsule by a fault.
    pub interrupted: usize,
    /// Spans with no parent (computation roots / recovery seeds).
    pub roots: usize,
    /// Spans whose parent id was not found in any ingested file — a
    /// complete DAG has zero of these.
    pub unresolved_parents: usize,
    /// Work on non-canonical executions: completed duplicates of a
    /// frame plus a canonical-work proxy per interrupted execution.
    pub wasted_work: u64,
    /// Work on the canonical (exactly-once committed) executions.
    pub useful_work: u64,
    /// `wasted / (useful + wasted)`; 0 for a crash-free run.
    pub wasted_ratio: f64,
    /// Work (and execution count) per capsule name, descending by work.
    pub per_name: Vec<(String, u64, usize)>,
    /// Work per top-level phase (name prefix before the last `/`),
    /// descending by work.
    pub per_phase: Vec<(String, u64)>,
    /// Work per emitting process (origin), ascending by origin.
    pub per_shard: Vec<(u32, u64)>,
    /// The critical path, root first: `(capsule name, work)` per hop.
    pub critical_path: Vec<(String, u64)>,
}

impl Analysis {
    /// Computes the profile of `set`.
    pub fn of(set: &TraceSet) -> Analysis {
        let spans = &set.spans;
        let mut a = Analysis {
            spans_total: spans.len(),
            ..Analysis::default()
        };
        // Index every execution by id (for parent resolution). Ids are
        // unique per (epoch, origin, seq); a duplicate would mean a
        // corrupt file — last one wins.
        let by_id: HashMap<u64, usize> =
            spans.iter().enumerate().map(|(at, s)| (s.id, at)).collect();

        let mut name_work: HashMap<&str, (u64, usize)> = HashMap::new();
        let mut phase_work: HashMap<String, u64> = HashMap::new();
        let mut shard_work: HashMap<u32, u64> = HashMap::new();
        for s in spans {
            if s.parent == 0 {
                a.roots += 1;
            } else if !by_id.contains_key(&s.parent) {
                a.unresolved_parents += 1;
            }
            if s.completed {
                a.completed += 1;
                a.work += s.work;
                let e = name_work.entry(s.name.as_str()).or_default();
                e.0 += s.work;
                e.1 += 1;
                *phase_work.entry(phase_of(&s.name).to_string()).or_default() += s.work;
                *shard_work.entry(s.origin).or_default() += s.work;
            } else {
                a.interrupted += 1;
            }
        }

        // Depth: longest parent-weighted path over completed spans,
        // memoized iteratively (the chains can be long — no recursion).
        // Re-executions count: replayed work after a fault genuinely
        // sits on the observed critical path. A missing or incomplete
        // parent contributes depth 0 (the span is treated as a root),
        // and a cycle — impossible in a well-formed trace, but files
        // can be corrupt — is cut at the revisited node.
        let mut memo: HashMap<u64, u64> = HashMap::new();
        let mut deepest: Option<usize> = None;
        for (at, s) in spans.iter().enumerate() {
            if !s.completed {
                continue;
            }
            let d = depth_of(at, spans, &by_id, &mut memo);
            if deepest.is_none_or(|b| d > memo[&spans[b].id]) {
                deepest = Some(at);
            }
        }
        a.depth = deepest.map(|at| memo[&spans[at].id]).unwrap_or(0);
        a.parallelism = if a.depth > 0 {
            a.work as f64 / a.depth as f64
        } else {
            0.0
        };

        // Critical path: walk the deepest leaf back to its root.
        if let Some(mut at) = deepest {
            loop {
                let s = &spans[at];
                a.critical_path.push((s.name.clone(), s.work));
                match by_id.get(&s.parent) {
                    Some(&p) if p != at && spans[p].completed => at = p,
                    _ => break,
                }
            }
            a.critical_path.reverse();
        }

        // Fault-wasted work: group executions by persistent frame
        // handle. The exactly-once protocol commits each frame once;
        // extra executions of the same (frame, capsule) are fault
        // replays or adoption races. Canonical = the completed
        // execution that started last (wall clock orders across
        // processes); earlier completed duplicates are wasted outright,
        // and each interrupted execution wastes ~one canonical-work's
        // worth (its own work counter died with the process). Frame
        // addresses recycle — a join frees its subtree's words — so
        // executions also key by the span that wrote the frame: a
        // recycled address holds a frame another execution wrote, and a
        // replay runs the frame it finds.
        // Executions installed without a known writer (a restart at
        // process start) key with 0, and capsule names separate most of
        // those.
        let mut groups: HashMap<(u64, u64, &str), Vec<usize>> = HashMap::new();
        for (at, s) in spans.iter().enumerate() {
            if s.frame != 0 {
                groups
                    .entry((s.frame, s.writer, s.name.as_str()))
                    .or_default()
                    .push(at);
            }
        }
        let mut useful = 0u64;
        for execs in groups.values() {
            let canon = execs
                .iter()
                .copied()
                .filter(|&e| spans[e].completed)
                .max_by_key(|&e| spans[e].start_us);
            let canon_work = canon.map(|e| spans[e].work).unwrap_or(0);
            if canon.is_some() {
                useful += canon_work;
            }
            for &e in execs {
                if Some(e) == canon {
                    continue;
                }
                let s = &spans[e];
                a.wasted_work += if s.completed { s.work } else { canon_work };
            }
        }
        // Frameless (volatile-continuation) spans are never replayed —
        // all useful.
        useful += spans
            .iter()
            .filter(|s| s.frame == 0 && s.completed)
            .map(|s| s.work)
            .sum::<u64>();
        a.useful_work = useful;
        let denom = a.useful_work + a.wasted_work;
        a.wasted_ratio = if denom > 0 {
            a.wasted_work as f64 / denom as f64
        } else {
            0.0
        };

        a.per_name = name_work
            .into_iter()
            .map(|(n, (w, c))| (n.to_string(), w, c))
            .collect();
        a.per_name.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
        a.per_phase = phase_work.into_iter().collect();
        a.per_phase
            .sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
        a.per_shard = shard_work.into_iter().collect();
        a.per_shard.sort_by_key(|&(o, _)| o);
        a
    }

    /// Renders the human-readable profile report.
    pub fn render_report(&self, title: &str) -> String {
        let mut out = String::new();
        let mut line = |s: String| {
            out.push_str(&s);
            out.push('\n');
        };
        line(format!("== ppm-trace profile: {title} =="));
        line(format!(
            "spans        {} total ({} completed, {} interrupted, {} roots)",
            self.spans_total, self.completed, self.interrupted, self.roots
        ));
        line(format!("work W       {} units", self.work));
        line(format!(
            "depth D      {} units (longest weighted path)",
            self.depth
        ));
        line(format!("parallelism  {:.2}x (W/D)", self.parallelism));
        line(format!(
            "wasted work  {} units of {} ({:.1}% fault-wasted)",
            self.wasted_work,
            self.useful_work + self.wasted_work,
            self.wasted_ratio * 100.0
        ));
        if self.unresolved_parents > 0 {
            line(format!(
                "WARNING: {} span(s) reference a parent not present in the ingested \
                 files — the DAG is incomplete (missing shard file?)",
                self.unresolved_parents
            ));
        }
        line(String::new());
        line("-- critical path (root -> leaf) --".to_string());
        for (name, work) in &self.critical_path {
            line(format!("  {work:>8}  {name}"));
        }
        line(String::new());
        line("-- work by capsule --".to_string());
        for (name, work, count) in self.per_name.iter().take(20) {
            line(format!("  {work:>8}  x{count:<6} {name}"));
        }
        line(String::new());
        line("-- work by phase --".to_string());
        for (phase, work) in &self.per_phase {
            line(format!("  {work:>8}  {phase}"));
        }
        line(String::new());
        line("-- work by shard --".to_string());
        for (origin, work) in &self.per_shard {
            let who = if *origin == 0 {
                "coordinator".to_string()
            } else {
                format!("shard {}", origin - 1)
            };
            line(format!("  {work:>8}  {who}"));
        }
        out
    }
}

/// Renders a folded-stacks file (one `a;b;c count` line per distinct
/// call path, parent-most frame first) from the completed spans — the
/// input format of standard flamegraph tooling, with capsule work as
/// the sample count. Consecutive duplicate names (soft chains of the
/// same capsule) collapse into one frame, and paths deeper than 64
/// frames are truncated at the root end.
pub fn folded_stacks(set: &TraceSet) -> String {
    const MAX_DEPTH: usize = 64;
    let spans = &set.spans;
    let by_id: HashMap<u64, usize> = spans.iter().enumerate().map(|(at, s)| (s.id, at)).collect();
    // Memoized collapsed name-path per span id, self-name last.
    let mut paths: HashMap<u64, Vec<&str>> = HashMap::new();
    let mut agg: HashMap<String, u64> = HashMap::new();
    for (at, s) in spans.iter().enumerate() {
        if !s.completed {
            continue;
        }
        let path = path_of(at, spans, &by_id, &mut paths, MAX_DEPTH);
        *agg.entry(path.join(";")).or_default() += s.work;
    }
    let mut lines: Vec<(String, u64)> = agg.into_iter().collect();
    lines.sort();
    let mut out = String::new();
    for (stack, work) in lines {
        out.push_str(&format!("{stack} {work}\n"));
    }
    out
}

/// The top-level phase of a capsule name: everything before the final
/// `/` segment (`sort/sample/part` -> `sort/sample`; a bare name is its
/// own phase).
fn phase_of(name: &str) -> &str {
    name.rsplit_once('/').map(|(p, _)| p).unwrap_or(name)
}

fn depth_of(
    at: usize,
    spans: &[SpanExec],
    by_id: &HashMap<u64, usize>,
    memo: &mut HashMap<u64, u64>,
) -> u64 {
    if let Some(&d) = memo.get(&spans[at].id) {
        return d;
    }
    // Iterative: push the parent chain until a memoized/root node,
    // then fold back down. The in-progress set guards corrupt cycles.
    let mut chain = vec![at];
    let mut on_chain: std::collections::HashSet<u64> = [spans[at].id].into();
    loop {
        let top = *chain.last().expect("chain is nonempty");
        let parent = spans[top].parent;
        match by_id.get(&parent) {
            Some(&p)
                if spans[p].completed
                    && !memo.contains_key(&parent)
                    && !on_chain.contains(&parent) =>
            {
                on_chain.insert(parent);
                chain.push(p);
            }
            _ => break,
        }
    }
    let mut below = {
        let deepest = *chain.last().expect("chain is nonempty");
        let parent = spans[deepest].parent;
        by_id
            .get(&parent)
            .and_then(|_| memo.get(&parent).copied())
            .unwrap_or(0)
    };
    for &node in chain.iter().rev() {
        below += spans[node].work;
        memo.insert(spans[node].id, below);
    }
    below
}

fn path_of<'a>(
    at: usize,
    spans: &'a [SpanExec],
    by_id: &HashMap<u64, usize>,
    memo: &mut HashMap<u64, Vec<&'a str>>,
    max_depth: usize,
) -> Vec<&'a str> {
    if let Some(p) = memo.get(&spans[at].id) {
        return p.clone();
    }
    let mut chain = vec![at];
    let mut on_chain: std::collections::HashSet<u64> = [spans[at].id].into();
    loop {
        let top = *chain.last().expect("chain is nonempty");
        let parent = spans[top].parent;
        match by_id.get(&parent) {
            Some(&p) if !memo.contains_key(&parent) && !on_chain.contains(&parent) => {
                on_chain.insert(parent);
                chain.push(p);
            }
            _ => break,
        }
    }
    let mut prefix: Vec<&'a str> = {
        let deepest = *chain.last().expect("chain is nonempty");
        memo.get(&spans[deepest].parent)
            .cloned()
            .unwrap_or_default()
    };
    for &node in chain.iter().rev() {
        let name = spans[node].name.as_str();
        if prefix.last() != Some(&name) {
            prefix.push(name);
        }
        if prefix.len() > max_depth {
            prefix.remove(0);
        }
        memo.insert(spans[node].id, prefix.clone());
    }
    prefix
}

/// Scans `line` for `"key":<digits>` and parses the digits.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let tag = format!("\"{key}\":");
    let at = line.find(&tag)? + tag.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Scans `line` for `"key":"value"` and returns the (escape-free)
/// value slice.
fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":\"");
    let at = line.find(&tag)? + tag.len();
    let rest = &line[at..];
    Some(&rest[..rest.find('"')?])
}

/// Scans `line` for `"key":"value"` where `value` was JSON-escaped by
/// the writer, and unescapes it.
fn field_escaped(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\":\"");
    let mut chars = line[line.find(&tag)? + tag.len()..].chars();
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                }
                c => out.push(c),
            },
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(text: &str) -> TraceSet {
        let mut s = TraceSet::default();
        s.ingest_str(text);
        s
    }

    /// A three-span chain: root(10) -> mid(5) -> leaf(7), serial.
    const CHAIN: &str = "\
{\"k\":\"m\",\"origin\":0,\"epoch\":1,\"pid\":1}\n\
{\"k\":\"s\",\"t\":100,\"id\":1,\"p\":0,\"f\":64,\"c\":\"a/root\",\"pr\":0}\n\
{\"k\":\"e\",\"t\":110,\"id\":1,\"w\":10,\"d\":10}\n\
{\"k\":\"s\",\"t\":110,\"id\":2,\"p\":1,\"f\":80,\"c\":\"a/mid\",\"pr\":0}\n\
{\"k\":\"e\",\"t\":115,\"id\":2,\"w\":5,\"d\":5}\n\
{\"k\":\"s\",\"t\":115,\"id\":3,\"p\":2,\"f\":96,\"c\":\"a/leaf\",\"pr\":0}\n\
{\"k\":\"e\",\"t\":122,\"id\":3,\"w\":7,\"d\":7}\n";

    #[test]
    fn serial_chain_has_depth_equal_work() {
        let a = set(CHAIN).analyze();
        assert_eq!(a.work, 22);
        assert_eq!(a.depth, 22);
        assert!((a.parallelism - 1.0).abs() < 1e-9);
        assert_eq!(a.roots, 1);
        assert_eq!(a.unresolved_parents, 0);
        assert_eq!(a.wasted_work, 0);
        assert_eq!(a.useful_work, 22);
        assert_eq!(a.wasted_ratio, 0.0);
        assert_eq!(
            a.critical_path,
            vec![
                ("a/root".to_string(), 10),
                ("a/mid".to_string(), 5),
                ("a/leaf".to_string(), 7)
            ]
        );
    }

    #[test]
    fn forked_arms_run_in_parallel() {
        // root(4) forks two arms of work 10 and 6; D = 4 + 10.
        let text = "\
{\"k\":\"s\",\"t\":1,\"id\":1,\"p\":0,\"f\":64,\"c\":\"r\",\"pr\":0}\n\
{\"k\":\"e\",\"t\":2,\"id\":1,\"w\":4,\"d\":1}\n\
{\"k\":\"s\",\"t\":2,\"id\":2,\"p\":1,\"f\":80,\"c\":\"l\",\"pr\":0}\n\
{\"k\":\"e\",\"t\":3,\"id\":2,\"w\":10,\"d\":1}\n\
{\"k\":\"s\",\"t\":2,\"id\":3,\"p\":1,\"f\":96,\"c\":\"r2\",\"pr\":1}\n\
{\"k\":\"e\",\"t\":3,\"id\":3,\"w\":6,\"d\":1}\n";
        let a = set(text).analyze();
        assert_eq!(a.work, 20);
        assert_eq!(a.depth, 14);
        assert!((a.parallelism - 20.0 / 14.0).abs() < 1e-9);
        assert_eq!(
            a.critical_path,
            vec![("r".to_string(), 4), ("l".to_string(), 10)]
        );
    }

    #[test]
    fn replayed_frame_counts_as_wasted() {
        // Frame 64 executes twice completed (a crashed epoch's commit
        // raced adoption): earlier one is wasted. Frame 80 is
        // interrupted once then re-run: proxy waste = canonical work.
        let text = "\
{\"k\":\"s\",\"t\":10,\"id\":1,\"p\":0,\"f\":64,\"c\":\"x\",\"pr\":0}\n\
{\"k\":\"e\",\"t\":11,\"id\":1,\"w\":8,\"d\":1}\n\
{\"k\":\"s\",\"t\":20,\"id\":2,\"p\":0,\"f\":64,\"c\":\"x\",\"pr\":1}\n\
{\"k\":\"e\",\"t\":21,\"id\":2,\"w\":8,\"d\":1}\n\
{\"k\":\"s\",\"t\":12,\"id\":3,\"p\":1,\"f\":80,\"c\":\"y\",\"pr\":0}\n\
{\"k\":\"s\",\"t\":30,\"id\":4,\"p\":2,\"f\":80,\"c\":\"y\",\"pr\":1}\n\
{\"k\":\"e\",\"t\":33,\"id\":4,\"w\":5,\"d\":3}\n";
        let a = set(text).analyze();
        assert_eq!(a.interrupted, 1);
        // Wasted: first x (8) + one interrupted y at canonical work 5.
        assert_eq!(a.wasted_work, 13);
        assert_eq!(a.useful_work, 13); // canonical x (8) + canonical y (5)
        assert!((a.wasted_ratio - 0.5).abs() < 1e-9);
    }

    #[test]
    fn a_recycled_frame_address_is_not_a_replay() {
        // A join freed frame 64 after span 2 ran from it (written by
        // span 1); span 3 wrote a new `x` frame there and span 4 ran it.
        // Two executions, two frames: nothing is wasted.
        let text = "\
{\"k\":\"s\",\"t\":1,\"id\":1,\"p\":0,\"f\":0,\"c\":\"r\",\"pr\":0}\n\
{\"k\":\"e\",\"t\":2,\"id\":1,\"w\":2,\"d\":1}\n\
{\"k\":\"s\",\"t\":2,\"id\":2,\"p\":1,\"f\":64,\"fw\":1,\"c\":\"x\",\"pr\":0}\n\
{\"k\":\"e\",\"t\":3,\"id\":2,\"w\":8,\"d\":1}\n\
{\"k\":\"s\",\"t\":3,\"id\":3,\"p\":2,\"f\":80,\"fw\":2,\"c\":\"r\",\"pr\":0}\n\
{\"k\":\"e\",\"t\":4,\"id\":3,\"w\":2,\"d\":1}\n\
{\"k\":\"s\",\"t\":4,\"id\":4,\"p\":3,\"f\":64,\"fw\":3,\"c\":\"x\",\"pr\":0}\n\
{\"k\":\"e\",\"t\":5,\"id\":4,\"w\":8,\"d\":1}\n";
        let a = set(text).analyze();
        assert_eq!(a.wasted_work, 0);
        assert_eq!(a.useful_work, a.work);
    }

    #[test]
    fn cross_file_parents_resolve() {
        let mut s = TraceSet::default();
        s.ingest_str(
            "{\"k\":\"m\",\"origin\":1,\"epoch\":1,\"pid\":1}\n\
             {\"k\":\"s\",\"t\":1,\"id\":281474976710657,\"p\":0,\"f\":64,\"c\":\"f\",\"pr\":0}\n\
             {\"k\":\"e\",\"t\":2,\"id\":281474976710657,\"w\":3,\"d\":1}\n",
        );
        // Shard 2 runs a stolen frame whose parent lives in shard 1's file.
        s.ingest_str(
            "{\"k\":\"m\",\"origin\":2,\"epoch\":1,\"pid\":2}\n\
             {\"k\":\"s\",\"t\":3,\"id\":562949953421313,\"p\":281474976710657,\"f\":96,\"c\":\"g\",\"pr\":0}\n\
             {\"k\":\"e\",\"t\":4,\"id\":562949953421313,\"w\":2,\"d\":1}\n",
        );
        let a = s.analyze();
        assert_eq!(a.unresolved_parents, 0);
        assert_eq!(a.depth, 5);
        assert_eq!(a.per_shard, vec![(1, 3), (2, 2)]);
    }

    #[test]
    fn missing_parent_is_flagged() {
        let a = set(
            "{\"k\":\"s\",\"t\":1,\"id\":9,\"p\":12345,\"f\":64,\"c\":\"o\",\"pr\":0}\n\
             {\"k\":\"e\",\"t\":2,\"id\":9,\"w\":1,\"d\":1}\n",
        )
        .analyze();
        assert_eq!(a.unresolved_parents, 1);
        assert_eq!(a.roots, 0);
        // Depth still computes, treating the orphan as a root.
        assert_eq!(a.depth, 1);
    }

    #[test]
    fn folded_stacks_collapse_and_aggregate() {
        let text = "\
{\"k\":\"s\",\"t\":1,\"id\":1,\"p\":0,\"f\":64,\"c\":\"r\",\"pr\":0}\n\
{\"k\":\"e\",\"t\":2,\"id\":1,\"w\":4,\"d\":1}\n\
{\"k\":\"s\",\"t\":2,\"id\":2,\"p\":1,\"f\":80,\"c\":\"r\",\"pr\":0}\n\
{\"k\":\"e\",\"t\":3,\"id\":2,\"w\":3,\"d\":1}\n\
{\"k\":\"s\",\"t\":3,\"id\":3,\"p\":2,\"f\":96,\"c\":\"leaf\",\"pr\":0}\n\
{\"k\":\"e\",\"t\":4,\"id\":3,\"w\":5,\"d\":1}\n";
        let folded = folded_stacks(&set(text));
        // Consecutive duplicate `r` frames collapse; work aggregates
        // at each distinct path.
        assert!(folded.contains("r 7\n"), "folded was:\n{folded}");
        assert!(folded.contains("r;leaf 5\n"), "folded was:\n{folded}");
    }

    #[test]
    fn report_renders_phases_and_shards() {
        let rep = set(CHAIN).analyze().render_report("chain");
        assert!(rep.contains("work W       22 units"));
        assert!(rep.contains("parallelism  1.00x"));
        assert!(rep.contains("a/root"));
        assert!(rep.contains("coordinator"));
        assert!(!rep.contains("WARNING"));
    }

    #[test]
    fn manifest_round_trips_and_expansion_skips_missing_files() {
        let dir = std::env::temp_dir().join(format!("ppm-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // The coordinator and shard 1 wrote a stream; shard 0 never did.
        let base = dir.join("run.jsonl");
        let streams = [
            crate::SpanSink::path_for(&base),
            crate::SpanSink::shard_path_for(&base, 1),
        ];
        for p in &streams {
            std::fs::write(p, "").unwrap();
        }
        write_manifest(&base, 2).unwrap();
        let man = dir.join("run.jsonl.manifest");
        let listed = std::fs::read_to_string(&man).unwrap();
        assert_eq!(listed.lines().count(), 4, "comment + one stream per origin");
        assert_eq!(expand_manifest(&man).unwrap(), streams);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
