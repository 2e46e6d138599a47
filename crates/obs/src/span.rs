//! The trace stream: one line-flushed JSONL record file per process,
//! carrying both causal spans and runtime events.
//!
//! A *span* is one execution of a traced capsule — from the moment the
//! engine begins running its body (before any soft-fault retries; the
//! span id is restart-stable) to the commit of its staged writes. Each
//! span carries a **parent edge**: the span that causally enabled it.
//! Within a process the parent is the previous traced capsule in the
//! same continuation chain (a `jump_to`, a fork arm, a join release);
//! across processes — a steal, an adoption, a recovery resume — the
//! parent travels *in the persistent frame words* (see
//! `ppm_pm::frame`), so the consumer that eventually runs the frame
//! links back to the producer that wrote it, whatever process or epoch
//! it lives in.
//!
//! An *event* ([`TraceKind`]) is a point in the runtime's own story —
//! a session starting, a shard declared dead, an adoption, a
//! checkpoint, a job changing hands — written into the same file with
//! the same clock, so the events of every process of a run order
//! against each other and against the spans around them.
//!
//! Nothing is buffered: every record is one `write_all` of one line,
//! so a SIGKILLed worker leaves behind every span it started and every
//! event it saw — exactly the runs a fault post-mortem needs. The files
//! are `<PPM_TRACE_FILE>.spans.jsonl` (coordinator / single-process)
//! and `<PPM_TRACE_FILE>.shard<k>.spans.jsonl` (cluster workers);
//! `ppm-trace` ingests the whole set.
//!
//! Record shapes (flat JSON, compact keys, one object per line):
//!
//! ```json
//! {"k":"m","origin":0,"epoch":1,"pid":1234}
//! {"k":"s","t":171234,"id":81064793292668929,"p":0,"f":4096,"c":"alg/prefix/up","pr":2}
//! {"k":"e","t":171250,"id":81064793292668929,"w":37,"d":16}
//! {"k":"ev","t":171260,"kind":"shard_dead","shard":3,"detail":"coordinator tombstoned shard 3"}
//! ```
//!
//! `k` is the record kind (`m`eta / `s`tart / `e`nd / `ev`ent), `t` a
//! wall-clock microsecond timestamp (for cross-process ordering),
//! `id`/`p` the span and parent span ids, `f` the persistent frame
//! address the span ran from (0 when it ran from a volatile
//! continuation), `c` the capsule name, `pr` the processor, `w` the
//! capsule's deterministic work in external-transfer units, and `d` the
//! wall-clock duration in microseconds. An event carries its `kind`,
//! the `shard` and `pr` it concerns when it has one, and a free-form
//! JSON-escaped `detail`.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Span id layout: `(epoch & 0x7F) << 56 | (origin & 0xFF) << 48 | seq`.
///
/// The epoch bits keep ids from a crashed run's persisted frame words
/// from colliding with the recovery run's fresh ids; the origin bits
/// (0 = coordinator / single process, shard+1 for cluster workers) keep
/// concurrent processes from colliding without any cross-process
/// coordination.
const EPOCH_SHIFT: u32 = 56;
const ORIGIN_SHIFT: u32 = 48;

/// What happened, for an event record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A scheduler session started driving seats.
    RunStart,
    /// A scheduler session finished (completed or stalled).
    RunEnd,
    /// A steal attempt won its CAM.
    Steal,
    /// A frontier entry of a *remote* (dead) shard was adopted.
    Adoption,
    /// An adoption was refused (unresumable remote entry).
    BlockedAdoption,
    /// A sibling shard's lease was declared dead.
    ShardDead,
    /// A checkpoint quiesce ran.
    Checkpoint,
    /// A recovery path executed (resume, checkpoint-resume, replay).
    Recovery,
    /// A job was published into the service injector ring.
    JobSubmitted,
    /// A worker's claim CAM won a published injector slot.
    JobClaimed,
    /// A job's done frame committed (exactly-once completion).
    JobDone,
}

impl TraceKind {
    /// Stable lowercase name, the record's `kind` field.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::RunStart => "run_start",
            TraceKind::RunEnd => "run_end",
            TraceKind::Steal => "steal",
            TraceKind::Adoption => "adoption",
            TraceKind::BlockedAdoption => "blocked_adoption",
            TraceKind::ShardDead => "shard_dead",
            TraceKind::Checkpoint => "checkpoint",
            TraceKind::Recovery => "recovery",
            TraceKind::JobSubmitted => "job_submitted",
            TraceKind::JobClaimed => "job_claimed",
            TraceKind::JobDone => "job_done",
        }
    }
}

/// A streaming, crash-durable trace record writer shared by every
/// `ppm_pm`-level processor context and every event site in one OS
/// process.
///
/// Thread-safe: the sequence counter is atomic and the file handle is
/// behind a mutex; each record is a single `write_all` of one line, so
/// concurrent emitters interleave whole lines.
pub struct SpanSink {
    file: Mutex<File>,
    seq: AtomicU64,
    id_base: u64,
}

impl std::fmt::Debug for SpanSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanSink")
            .field("id_base", &format_args!("{:#x}", self.id_base))
            .field("seq", &self.seq.load(Ordering::Relaxed))
            .finish()
    }
}

impl SpanSink {
    /// Opens (or appends to) the span file at `path` and writes a meta
    /// record identifying this process. `origin` is 0 for the
    /// coordinator / a single-process run and `shard + 1` for cluster
    /// workers; `epoch` is the machine run-epoch. With `append` set the
    /// existing file is extended (a recovery run adding to the crashed
    /// run's spans); otherwise it is truncated.
    pub fn create(path: &Path, origin: u32, epoch: u64, append: bool) -> std::io::Result<SpanSink> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut opts = OpenOptions::new();
        opts.create(true).write(true);
        if append {
            opts.append(true);
        } else {
            opts.truncate(true);
        }
        let mut file = opts.open(path)?;
        let line = format!(
            "{{\"k\":\"m\",\"origin\":{},\"epoch\":{},\"pid\":{}}}\n",
            origin,
            epoch,
            std::process::id()
        );
        file.write_all(line.as_bytes())?;
        Ok(SpanSink {
            file: Mutex::new(file),
            seq: AtomicU64::new(1),
            id_base: ((epoch & 0x7F) << EPOCH_SHIFT) | (u64::from(origin & 0xFF) << ORIGIN_SHIFT),
        })
    }

    /// Mints a fresh process-unique span id (nonzero; 0 means "no
    /// span" everywhere ids travel — frame words, parent fields).
    pub fn mint(&self) -> u64 {
        self.id_base | self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Wall-clock microseconds since the UNIX epoch — comparable
    /// across the processes of one run, which is all the analyzer
    /// needs to order re-executions of the same frame.
    pub fn now_us() -> u64 {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0)
    }

    /// Emits a span-start record. `parent` is 0 for a root span,
    /// `frame` the persistent frame address the capsule was installed
    /// from (0 when volatile), `writer` the span that wrote that frame
    /// (its parent-span word; 0 when unknown), `name` the capsule name,
    /// `proc` the executing processor.
    pub fn start(&self, id: u64, parent: u64, frame: u64, writer: u64, name: &str, proc: usize) {
        let line = format!(
            "{{\"k\":\"s\",\"t\":{},\"id\":{},\"p\":{},\"f\":{},\"fw\":{},\"c\":\"{}\",\"pr\":{}}}\n",
            Self::now_us(),
            id,
            parent,
            frame,
            writer,
            name,
            proc
        );
        self.write_line(&line);
    }

    /// Emits a span-end record: `work` is the capsule's committed work
    /// in deterministic external-transfer units, `dur_us` the measured
    /// wall-clock duration.
    pub fn end(&self, id: u64, work: u64, dur_us: u64) {
        let line = format!(
            "{{\"k\":\"e\",\"t\":{},\"id\":{},\"w\":{},\"d\":{}}}\n",
            Self::now_us(),
            id,
            work,
            dur_us
        );
        self.write_line(&line);
    }

    /// Emits an event record about `shard` / `proc` (when it concerns
    /// one). `detail` is free text; it is JSON-escaped here.
    pub fn event(&self, kind: TraceKind, shard: Option<u32>, proc: Option<u32>, detail: &str) {
        use std::fmt::Write as _;
        let mut line = format!(
            "{{\"k\":\"ev\",\"t\":{},\"kind\":\"{}\"",
            Self::now_us(),
            kind.name()
        );
        if let Some(s) = shard {
            let _ = write!(line, ",\"shard\":{s}");
        }
        if let Some(p) = proc {
            let _ = write!(line, ",\"pr\":{p}");
        }
        if !detail.is_empty() {
            line.push_str(",\"detail\":\"");
            push_json_escaped(&mut line, detail);
            line.push('"');
        }
        line.push_str("}\n");
        self.write_line(&line);
    }

    fn write_line(&self, line: &str) {
        if let Ok(mut f) = self.file.lock() {
            // Best-effort: a full disk must not take the computation
            // down with it. Each line is a single write_all so records
            // from concurrent processors never interleave mid-line.
            let _ = f.write_all(line.as_bytes());
        }
    }

    /// The stream path of the coordinator / a single-process run,
    /// derived from the `PPM_TRACE_FILE` base: `<trace>.spans.jsonl`.
    pub fn path_for(trace_file: &Path) -> std::path::PathBuf {
        let mut os = trace_file.as_os_str().to_os_string();
        os.push(".spans.jsonl");
        std::path::PathBuf::from(os)
    }

    /// The stream path of cluster worker `shard`:
    /// `<trace>.shard<k>.spans.jsonl`.
    pub fn shard_path_for(trace_file: &Path, shard: usize) -> std::path::PathBuf {
        let mut os = trace_file.as_os_str().to_os_string();
        os.push(format!(".shard{shard}.spans.jsonl"));
        std::path::PathBuf::from(os)
    }
}

/// Appends `s` to `out` as the inside of a JSON string.
fn push_json_escaped(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ppm-span-{}-{name}", std::process::id()))
    }

    #[test]
    fn ids_carry_epoch_and_origin_bits() {
        let path = tmp("ids.jsonl");
        let sink = SpanSink::create(&path, 3, 2, false).unwrap();
        let id = sink.mint();
        assert_eq!(id >> EPOCH_SHIFT, 2);
        assert_eq!((id >> ORIGIN_SHIFT) & 0xFF, 3);
        assert_eq!(id & 0xFFFF_FFFF_FFFF, 1);
        assert!(sink.mint() > id);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn records_stream_line_by_line() {
        let path = tmp("stream.jsonl");
        let sink = SpanSink::create(&path, 0, 1, false).unwrap();
        let id = sink.mint();
        sink.start(id, 0, 4096, 0, "alg/test", 2);
        sink.end(id, 37, 16);
        // No explicit flush/drop ordering needed: every record was
        // write_all'd straight to the fd, as a SIGKILL would see it.
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"k\":\"m\""));
        assert!(lines[1].contains("\"k\":\"s\"") && lines[1].contains("\"c\":\"alg/test\""));
        assert!(lines[2].contains("\"k\":\"e\"") && lines[2].contains("\"w\":37"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn events_share_the_stream_and_round_trip_hostile_detail() {
        let path = tmp("event.jsonl");
        let sink = SpanSink::create(&path, 2, 1, false).unwrap();
        let detail = "lease \"Dead\" at C:\\run\nnext\tline\u{1}";
        let id = sink.mint();
        sink.start(id, 0, 64, 0, "alg/before", 0);
        sink.event(TraceKind::ShardDead, Some(3), None, detail);
        sink.end(id, 5, 1);
        // Read while the sink is alive: the record is on disk already.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 4, "one line per record:\n{text}");
        let mut set = crate::TraceSet::default();
        set.ingest_str(&text);
        assert_eq!(set.events.len(), 1);
        let ev = &set.events[0];
        assert_eq!((ev.kind.as_str(), ev.origin), ("shard_dead", 2));
        assert_eq!((ev.shard, ev.proc), (Some(3), None));
        assert_eq!(ev.detail, detail);
        assert!(ev.t_us > 0);
        // The span around it is undisturbed.
        assert_eq!(set.spans.len(), 1);
        let s = &set.spans[0];
        assert!(s.completed && s.work == 5 && s.name == "alg/before" && s.frame == 64);
        drop(sink);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_mode_preserves_prior_epochs() {
        let path = tmp("append.jsonl");
        let a = SpanSink::create(&path, 0, 1, false).unwrap();
        let id = a.mint();
        a.start(id, 0, 0, 0, "x", 0);
        drop(a);
        let b = SpanSink::create(&path, 0, 2, true).unwrap();
        let id2 = b.mint();
        b.start(id2, 0, 0, 0, "y", 0);
        drop(b);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text.lines().filter(|l| l.contains("\"k\":\"m\"")).count(),
            2
        );
        assert!(text.contains("\"c\":\"x\"") && text.contains("\"c\":\"y\""));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn derived_paths_follow_shard_convention() {
        let base = std::path::Path::new("trace_out/run.jsonl");
        assert_eq!(
            SpanSink::path_for(base),
            std::path::Path::new("trace_out/run.jsonl.spans.jsonl")
        );
        assert_eq!(
            SpanSink::shard_path_for(base, 3),
            std::path::Path::new("trace_out/run.jsonl.shard3.spans.jsonl")
        );
    }
}
