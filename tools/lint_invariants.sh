#!/usr/bin/env bash
# Invariant lint gate — greppable protocol rules that the type system
# cannot express. Run from the repo root; CI runs it in the `verify` job
# next to the ppm-check model explorer.
#
#   1. CAS stays quarantined. The paper's protocols are CAM-only
#      (§3: CAS is not idempotent under faults). The one CAS primitive,
#      `cas_unsafe_under_faults`, exists for the non-fault-tolerant ABP
#      baseline and may only be referenced inside `crates/pm` (its
#      definition and the costed ProcHandle wrapper) — with one scoped
#      exception: the injector queue's HOST-side surface in
#      crates/sched/src/service.rs (submit staging, publish, reclaim).
#      Those run on client/coordinator threads outside the capsule
#      re-execution regime — a crashed host thread never re-runs its
#      CAS, and a torn staging slot is scavenged on recovery — so the
#      §3 idempotency argument does not apply. Each such site must
#      carry a `host-CAS:` justification within the six lines above it;
#      capsule-side code (the pull/done chains) stays CAM-only.
#
#   2. Cross-process control-page slots are SeqCst. Lease, tombstone and
#      cluster-header words are written by one process and read by its
#      siblings; a Relaxed ordering on that path would let a stale lease
#      resurrect a tombstoned shard (see model/lease.rs TombstoneSticky).
#      The one store loop and the one load loop live in
#      crates/pm/src/control.rs, which names no other ordering.
#
#   3. Unsafe stays quarantined in `crates/pm`. Every other crate is
#      #![forbid]-clean by policy; the mmap/word-IO surface in pm is the
#      only place raw pointers are allowed, and every site there carries
#      a SAFETY: justification (also enforced by
#      clippy::undocumented_unsafe_blocks workspace-wide).
#
#   4. The hot path takes no lock. The model's instruments (write
#      observer, statistics, dirty bits) are free in the paper; here they
#      must at least not serialize the processors they measure. The
#      bodies of the per-access and per-capsule functions — in crates/pm:
#      PersistentMemory::{load,store,cam,cas_unsafe_under_faults,
#      read_range,write_range,mark_dirty} and the `observe` helper they
#      call, DirtyTracker::{mark,mark_range}, MemStats::record_*,
#      ProcCtx::{pread,pwrite,pcam,read_range,write_range,read_block_into,
#      write_block,consult_range,take_fault,stage_write,stage_range,
#      flush_staged,fault_point,begin_capsule,complete_capsule,
#      publish_watermark}, every WarTracker method but
#      the cold `grow` and the `lines`/`word_bit` helpers that feed them,
#      FrameBuf::{new,push,write}, write_frame and with_frame_args; in
#      crates/core: InstallCtx::{install_handle,install_sched},
#      journal_image, live_record, run_body_and_install,
#      resolve_handle, ContArena::{resolve_with,run_frame}, the
#      registry's table lookup, its type-erased
#      decode-and-run and CodeMemo::{entry,frame_ref,run}, and
#      CapsuleSet::body with the decode, run and trace closures it
#      registers; in crates/sched: every arm of
#      Sched::run and the record codec of step.rs — may not contain `.read()`,
#      `.write()`, `.lock()` or `.clone()` (a lock, or a refcount RMW on a
#      line every processor shares) unless a `hot-path-ok:` justification
#      sits within the six lines above. The expected exceptions are the
#      observer call behind its flag check and the memo's once-per-id
#      miss. The
#      frame-dispatch bodies name no `Arc::new` either (a frame is run,
#      not rebuilt), and the scheduler bodies additionally name
#      no `Arc::new` and no `format!` (a trace detail is built inside an
#      `obs.event` closure, in a helper, once a stream is open). An event
#      site with
#      tracing off is on the same path: in crates/obs, Obs::{event,
#      span_sink} name no `Mutex`, `RwLock`, `.lock()` or `format!` — the
#      absent stream costs one load, and the detail text is built by the
#      caller's closure only once a stream is there to take it.
#
#   5. One supervisor. Reaping a dead worker and tombstoning its lease
#      is one job (the paper's §6 asynchrony requirement at OS scale) and
#      crates/sched/src/supervisor.rs does it once. Under crates/,
#      `try_wait(` (the reap) may appear in exactly one source file, and
#      no `#[deprecated` shim or `allow(deprecated)` caller ships: an old
#      entry point is deleted, not kept beside the new one.
#
#   6. One algorithm form, one session entry. The §7 theorems are
#      measured on the code that ships: crates/algs/src builds only
#      registered persistent capsules (`pcomp()`), so no `fn comp(` and
#      no `-> Comp` there; and a `Runtime` runs a computation through
#      `run_or_recover` alone, so `run_or_replay`, `LegacyClosures` and
#      `recover_computation` appear nowhere under crates/ src/ tests/
#      examples/. Protocol tests, experiments and baselines build their
#      DAGs the same way (see rule 14).
#
#   7. No hashing or heap allocation per access. The write-after-read
#      check and a frame persist cost a probe and a range store: the same
#      bodies as rule 4, plus `CapsuleDef::frame`, may not contain `HashMap`, `Vec::new`, `Vec::with_capacity`, `vec!`,
#      `.collect()` or `.to_vec()` (same `hot-path-ok:` escape), and
#      crates/pm/src/validate.rs does not name `HashMap` at all — its table
#      is open-addressed by 64-word line, reset by a generation bump.
#
#   8. One trace stream. Spans and events go through `SpanSink` into one
#      line-flushed file per process, opened by `Obs::open_trace` alone:
#      outside crates/obs/src/span.rs (which defines it) and `tests/`
#      directories, `SpanSink::create(` appears in exactly one file under
#      crates/. The event ring it replaced stays gone — `Tracer`,
#      `.tracer()`, `TraceSummary`, `flush_jsonl`, `PPM_TRACE_SAMPLE` —
#      and so do the victim strategies and baseline slack nothing ran —
#      `VictimStrategy`, `WALL_SLACK`: none appears under crates/ src/
#      examples/ tests/ (`CapsuleTracer`, the checkpoint GC's frame
#      tracer, is a different thing). `ppm_trace_dropped_total` is named
#      by no dashboard or recording rule.
#
#   9. One control-page codec. The first page of a machine file is laid
#      out, encoded and checksummed in crates/pm/src/control.rs and
#      nowhere else: under crates/, `fn fnv1a` is defined in exactly one
#      file; `from_raw_parts_mut` appears nowhere (no `&mut [u8]` view of
#      a page other processes read through atomics); crates/pm/src/
#      backend/ names no `Mutex` or `RwLock` (one writer per record
#      replaces the lock, see control.rs) and holds at most eight
#      `unsafe` sites; `MemBackend` declares at most seven methods (words
#      + one control page + three flushes, nothing naming a record); and
#      `.backend()` is called nowhere outside crates/pm — sched and core
#      reach the page through `PersistentMemory::control()` and the
#      `Machine` methods. The unproven cross-process checkpoint quiesce
#      stays deleted: `quiesce_word`, `QUIESCE_`, `QuiesceFollower`,
#      `cluster_round`, `cluster_park`, `checkpoint_every` appear nowhere
#      under crates/ src/ tests/ examples/.
#
#  10. One scheduler-capsule form. A scheduler capsule is a step — a
#      kind and five words, journaled in the processor's metadata block
#      (crates/sched/src/step.rs, crates/core/src/runner.rs) — never a
#      closure: the closure constructors it used to be built with,
#      `sched_capsule(` and `capsule_unchecked(`, appear nowhere under
#      crates/. Because a step is words, any attachment resolves any
#      restart pointer, and the in-process/remote split of the adoption
#      path stays deleted: `adoptable_handle`, `remote_local_adoptable`
#      and `fn resolvable` appear nowhere under crates/. The record's word
#      count, `const SCHED_ARG_WORDS`, is defined in exactly one file.
#
#  11. One ordering point per instruction. Every access to the word array
#      in crates/pm/src/mem.rs is SeqCst, except inside `write_range`: a
#      range write is one model instruction, its interior words are
#      Release stores in ascending order and its last word is the SeqCst
#      store (the module docs say why that is enough). Outside that body
#      (and the file's tests) the only other orderings the file may name
#      are the Release/Acquire pair on the `has_observer` flag.
#
#  12. No dangling citation. A `*.md` file named in a Rust source file
#      under crates/ src/ tests/ examples/ exists in the tree (by path
#      from the root or by name anywhere outside target/ and vendor/): a
#      design note lives where it is cited, or in a file that is there.
#
#  13. A frame is run, not rehydrated. A frame-denoted capsule is its
#      words: the engine reads them onto its stack, decodes them and calls
#      the registered body, on every attempt. The constructor machinery
#      that turned each frame back into a heap closure first stays
#      deleted — `CapsuleCtor`, `CtorCache`, `instantiate_parts`,
#      `arrive_cam_frame`, `arrive_check_frame` appear nowhere under
#      crates/ — and neither crates/core/src/dsl.rs nor
#      crates/core/src/registry.rs builds a closure capsule: outside
#      their `#[cfg(test)]` modules `capsule(` is not named there.
#
#  14. One capsule representation. Every capsule anything runs is words
#      in persistent memory — a registered frame or a scheduler record —
#      so a processor's position is a `Copy` value and every restart
#      pointer decodes in any process. The closure machine stays deleted:
#      `Comp`, `comp_step`, `comp_fork2`, `par_all`, `run_closure`,
#      `new_closure`, `Active::Capsule`, `FnCapsule`, `install_jump`,
#      `preregister`, `register_at` and `Next::Jump(` appear nowhere under
#      crates/ src/ tests/ examples/.
#
#  15. One way work enters a cluster. Every cluster file carries the
#      injector ring, and a batch run is a service run with a fixed job
#      set: it publishes one ticket per shard and closes admission, and a
#      closed, drained ring is the one completion rule
#      (crates/sched/src/cluster.rs, crates/sched/src/service.rs). The
#      planting protocol, its arrival join and the batch/service switch
#      stay deleted: `plant_roots`, `"cluster/arrive"`, `"cluster/check"`,
#      `set_live_stealing`, `in_victim_set` and `subtree_complete` appear
#      nowhere under crates/ src/ tests/ examples/, and no `fn service(`
#      is defined in crates/sched/src/cluster.rs (ClusterBuilder's home).
#
#  16. One session entry, one recover. A `Runtime` session is a one-worker
#      cluster: its root is ticket 1 of a one-slot injector ring, every
#      processor starts at `findWork`, the done check that drains the ring
#      sets the done flag, and one function in crates/sched/src/driver.rs
#      recovers every machine, `Runtime` and cluster file alike. The
#      second entry and the second recovery stay deleted:
#      `run_persistent_impl`, `recover_persistent_impl`, `launch_root`,
#      `run_root_on` and `fn fresh_run` appear nowhere under crates/ src/
#      tests/ examples/, and crates/sched/src/sim.rs names no `set_done`
#      (a simulated run completes on the done path too;
#      `ClusterObserver::set_done`, the service shutdown, stays).
#
#  17. One rescuer. A puller seats its `Local` entry before its claim
#      CAM, so every claimed ring job has a thread to adopt, and Figure 3
#      adoption alone finishes a dead claimant's job. The second and
#      third rescuers stay deleted: `fn rescue(`, `.rescue(`,
#      `StealAction::Rescue`, `DropRescue` and `RescueCompleted` appear
#      nowhere under crates/ src/ tests/ examples/, and
#      crates/sched/src/supervisor.rs names no `service_queue` (the
#      supervisor reaps and buries; it writes no ring word).
#
#  18. One Figure 3. The scheduler is model-checked as it runs: the
#      explorer steps the real capsules through the simulator
#      (crates/sched/src/model/engine.rs), so no hand-written twin of
#      `capsules.rs` can drift from the code it claims to check. The twin
#      stays deleted: `StealModel`, `StealMutation`, `StealAction`,
#      `StealSt` and `model::steal` appear nowhere under crates/ src/
#      tests/ examples/.
#
#  19. A flush pays for its dirty pages. `DirtyTracker::drain` walks the
#      bitmap a word at a time, never page by page over the file.
#
#  20. One join capsule. A §5 join arrival is one capsule — its CAM, then
#      its read of the set-once cell (crates/core/src/join.rs) — so no
#      second join capsule is registered: `arrive_check`,
#      `CORE_ID_JOIN_CHECK` and a `"join-check"` capsule name appear
#      nowhere under crates/ src/ tests/ examples/, and id 0x02 stays
#      reserved.
#
#  21. A fork pays three scheduler records (crates/sched/src/capsules.rs):
#      kinds 4 and 16 stay retired, and `clearBottom` runs
#      `popBottom/read`'s body instead of installing it.
#
#  22. An exhausted pool is an error, not a panic. `ProcCtx::palloc`
#      (crates/pm/src/proc.rs) returns `Fault::Exhausted` and keeps the
#      structured `PmError` for the session to return; its body names no
#      `panic!`, `assert`, `unreachable!`, `.expect(` or `.unwrap(`.
#
#  23. One restart. Recovery is §6's restart — each processor resumes at
#      its own restart pointer (crates/sched/src/driver.rs) — so the
#      harvest-and-replant path's refusals are gone: `StealInFlight`,
#      `MidPush` and `InvalidTakenRef` appear nowhere under crates/ src/
#      tests/ examples/, and driver.rs calls no `harvest_frontier` or
#      `capture_frontier` (the checkpoint quiesce's capture, its one
#      caller, lives in checkpoint.rs).
#
#  24. A costed range is one call. `ProcCtx::write_range` / `read_range`
#      (crates/pm/src/proc.rs) consult, charge, check and move a range of
#      blocks in one instruction, so nothing loops over block transfers:
#      crates/algs/src (outside tests) and crates/core/src/runner.rs name
#      no `write_block(` or `read_block_into(` call at all, and the bodies
#      of `ProcCtx::write_block` / `read_block_into` delegate to the range
#      call (they name `self.write_range(` / `self.read_range(` and no
#      `fault_point`, `capsule_work` or `self.mem.`).

set -u
cd "$(dirname "$0")/.."

fail=0
err() {
    echo "lint_invariants: $1" >&2
    echo "$2" | sed 's/^/    /' >&2
    fail=1
}

# --- 1. CAS quarantine -----------------------------------------------------
hits=$(grep -rn "cas_unsafe_under_faults" --include="*.rs" crates/ \
    | grep -v "^crates/pm/" \
    | grep -v "^crates/sched/src/service.rs" || true)
if [ -n "$hits" ]; then
    err "cas_unsafe_under_faults referenced outside crates/pm (CAM-only protocols; see §3 of the paper):" "$hits"
fi
# The service.rs exception is justification-gated: every CAS site there
# must have a `host-CAS:` comment within the six lines above it (the
# marker documents why the host-thread crash model makes CAS sound).
unjustified=$(awk '
    /host-CAS:/ { last = NR }
    /cas_unsafe_under_faults/ && !/host-CAS:/ {
        if (NR - last > 6) print FILENAME ":" NR ": " $0
    }
' crates/sched/src/service.rs || true)
if [ -n "$unjustified" ]; then
    err "cas_unsafe_under_faults in service.rs without a host-CAS: justification within 6 lines (capsule-side code must stay CAM-only):" "$unjustified"
fi

# --- 2. SeqCst on cross-process slots --------------------------------------
# store_words/read_record in control.rs are the only path to
# lease/tombstone/cluster-header words; they must never relax. Scope the
# check to that file so observability counters elsewhere can stay Relaxed.
hits=$(grep -n "Ordering::Relaxed\|Ordering::Acquire\|Ordering::Release\|Ordering::AcqRel" \
    crates/pm/src/control.rs || true)
if [ -n "$hits" ]; then
    err "non-SeqCst ordering in the control-page codec (lease/tombstone slots must be SeqCst):" "$hits"
fi
hits=$(grep -n "Ordering::Relaxed" crates/pm/src/lease.rs crates/sched/src/cluster.rs 2>/dev/null \
    | grep -i "lease\|tombstone" || true)
if [ -n "$hits" ]; then
    err "Relaxed ordering on a lease/tombstone access path:" "$hits"
fi

# --- 3. unsafe quarantine + SAFETY comments --------------------------------
hits=$(grep -rn "unsafe" --include="*.rs" \
    crates/core/src crates/sched/src crates/algs/src crates/check/src \
    crates/obs/src crates/sim/src crates/bench/src 2>/dev/null \
    | grep -v "unsafe_code\|cas_unsafe_under_faults\|// \|//!" || true)
if [ -n "$hits" ]; then
    err "unsafe outside crates/pm (the raw-pointer surface is quarantined there):" "$hits"
fi

# Every unsafe site in crates/pm must have a SAFETY: line within the six
# lines above it (clippy::undocumented_unsafe_blocks enforces the same
# rule at compile time; this is the toolchain-independent backstop).
missing=$(awk '
    /SAFETY:/ { last = NR }
    /^[^\/]*unsafe/ && !/cas_unsafe_under_faults/ && !/"/ {
        if (NR - last > 6) print FILENAME ":" NR ": " $0
    }
' $(grep -rl "unsafe" --include="*.rs" crates/pm/src) || true)
if [ -n "$missing" ]; then
    err "unsafe site in crates/pm without a SAFETY: comment within 6 lines:" "$missing"
fi

# --- 4. hot path takes no lock / 7. nor hashes, nor allocates ---------------
# body_scan FILE 'name|name|...' REGEX [outside]: prints every line
# matching REGEX inside the bodies of the named functions (brace-matched
# from the `fn` line) that has no hot-path-ok: marker within the six
# lines above it. With a fourth argument: every such line *outside* those
# bodies instead, up to the file's `#[cfg(test)]`.
body_scan() {
    awk -v names="$2" -v bad="$3" -v outside="${4:+1}" '
        BEGIN { outside += 0; infn = 0 }
        /hot-path-ok:/ { ok = NR }
        outside && /^#\[cfg\(test\)\]/ { exit }
        !infn && $0 ~ ("fn (" names ")[(<]") { infn = 1; depth = 0; opened = 0 }
        $0 !~ /^[ \t]*\/\// {
            if (infn != outside && $0 ~ bad && (ok == 0 || NR - ok > 6))
                print FILENAME ":" NR ": " $0
        }
        infn && $0 !~ /^[ \t]*\/\// {
            line = $0
            depth += gsub(/\{/, "", line)
            if (depth > 0) opened = 1
            depth -= gsub(/\}/, "", line)
            if (opened && depth <= 0) infn = 0
            if (!opened && $0 ~ /;[ \t]*$/) infn = 0
        }
    ' "$1"
}
# The per-access and per-capsule bodies, shared by both rules.
hot_bodies() { # REGEX
    body_scan crates/pm/src/mem.rs \
        'load|store|cam|cas_unsafe_under_faults|read_range|write_range|mark_dirty|observe' "$1"
    body_scan crates/pm/src/dirty.rs 'mark|mark_range' "$1"
    body_scan crates/pm/src/stats.rs 'record_[a-z_]*|bump|raise' "$1"
    body_scan crates/pm/src/proc.rs \
        'pread|pwrite|pcam|read_range|write_range|read_block_into|write_block|consult_range|take_fault|stage_write|stage_range|flush_staged|fault_point|begin_capsule|complete_capsule|publish_watermark' "$1"
    body_scan crates/pm/src/validate.rs \
        'lines|next|word_bit|reset|probe|slot|claim|read|write|conflict|on_read|on_write|on_read_block|on_write_block' "$1"
    body_scan crates/pm/src/frame.rs 'new|push|write|write_frame' "$1"
    body_scan crates/core/src/runner.rs \
        'install_handle|install_sched|journal_image|live_record|run_body_and_install' "$1"
    frame_bodies "$1"
    sched_bodies "$1"
}
# What running a frame-denoted capsule goes through, install to body.
frame_bodies() { # REGEX
    body_scan crates/pm/src/frame.rs 'with_frame_args' "$1"
    body_scan crates/core/src/runner.rs 'resolve_handle' "$1"
    body_scan crates/core/src/arena.rs 'resolve_with|run_frame' "$1"
    body_scan crates/core/src/registry.rs 'slot|decodes|run|entry|frame_ref' "$1"
    body_scan crates/core/src/dsl.rs 'body' "$1"
}
# Every arm of Sched::run (and the trait shim in front of it) and the
# step codec.
sched_bodies() { # REGEX
    body_scan crates/sched/src/capsules.rs 'run|go|steal_afresh|decode|find_work|on_fork|on_end' "$1"
    body_scan crates/sched/src/step.rs \
        'encode|decode|step|seat|un_seat|put|get|words|at|lo|mid|hi|proc_of|name|war_checked|try_from' "$1"
}
hits=$(hot_bodies '\.(read|write|lock|clone)\(\)')
if [ -n "$hits" ]; then
    err "lock or refcount clone on the per-access / per-capsule path without a hot-path-ok: justification within 6 lines:" "$hits"
fi
hits=$(body_scan crates/obs/src/lib.rs 'event|span_sink' 'Mutex|RwLock|\.lock\(\)|format!')
if [ -n "$hits" ]; then
    err "lock or string formatting on an event site's tracing-off path (Obs::event / Obs::span_sink are one load when no stream is open):" "$hits"
fi
hits=$(frame_bodies 'Arc::new')
if [ -n "$hits" ]; then
    err "Arc::new on the frame-dispatch path (a frame is decoded and run on the stack, never rebuilt as a heap closure):" "$hits"
fi
hits=$(sched_bodies 'Arc::new|format!|RwLock|Mutex')
if [ -n "$hits" ]; then
    err "allocation, lock or string formatting in a scheduler capsule body or the step codec (a step is words; trace details are built in obs.event closures, in helpers):" "$hits"
fi
allocs='HashMap|Vec::new|Vec::with_capacity|Vec<|vec!|\.collect\(|\.to_vec\('
hits=$(
    hot_bodies "$allocs"
    body_scan crates/core/src/dsl.rs 'words|frame' "$allocs"
    grep -n "HashMap" crates/pm/src/validate.rs
)
if [ -n "$hits" ]; then
    err "hashing or heap allocation on the per-access / per-frame path (the WAR check is a probe, a frame persist one range):" "$hits"
fi

# --- 5. one supervisor ------------------------------------------------------
exactly_one_file() { # what, newline-separated file list
    if [ "$(echo "$2" | grep -c .)" -ne 1 ]; then
        err "$1 must live in exactly one source file under crates/ (the Supervisor); found in:" "${2:-<none>}"
    fi
}
exactly_one_file "the worker reap (try_wait)" \
    "$(grep -rl "try_wait(" --include="*.rs" crates/ || true)"
hits=$(grep -rn "#\[deprecated\|allow(deprecated)" --include="*.rs" crates/ || true)
if [ -n "$hits" ]; then
    err "deprecated shim or allow(deprecated) caller under crates/ (delete the old path, do not keep it beside the new one):" "$hits"
fi

# --- 6. one algorithm form, one session entry --------------------------------
hits=$(grep -rn "fn comp(\|-> Comp" --include="*.rs" crates/algs/src || true)
if [ -n "$hits" ]; then
    err "closure form of a §7 algorithm under crates/algs/src (pcomp() is the one form the theorems are measured on):" "$hits"
fi
hits=$(grep -rn "run_or_replay\|LegacyClosures\|recover_computation" --include="*.rs" \
    crates src tests examples || true)
if [ -n "$hits" ]; then
    err "second session entry or legacy replay path (Runtime::run_or_recover is the one way a session runs a computation):" "$hits"
fi

# --- 8. one trace stream ------------------------------------------------------
openers=$(grep -rl "SpanSink::create(" --include="*.rs" crates/ \
    | grep -v "/tests/" | grep -v "^crates/obs/src/span.rs$" || true)
if [ "$openers" != "crates/obs/src/lib.rs" ]; then
    err "SpanSink::create( must be called from exactly one place, Obs::open_trace in crates/obs/src/lib.rs; found in:" "${openers:-<none>}"
fi
hits=$(grep -rn "\bTracer\b\|\.tracer()\|TraceSummary\|flush_jsonl\|PPM_TRACE_SAMPLE\|VictimStrategy\|WALL_SLACK" \
    --include="*.rs" crates src examples tests || true)
if [ -n "$hits" ]; then
    err "a deleted name is back (the event ring, its sampling knob, the victim strategies or the baseline slack):" "$hits"
fi
hits=$(grep -rn "ppm_trace_dropped_total" tools/dashboard tools/recording_rules.yml || true)
if [ -n "$hits" ]; then
    err "ppm_trace_dropped_total is gone with the event ring; a dashboard or rule still names it:" "$hits"
fi

# --- 9. one control-page codec -------------------------------------------------
defs=$(grep -rl "fn fnv1a" --include="*.rs" crates/ || true)
if [ "$defs" != "crates/pm/src/control.rs" ]; then
    err "fn fnv1a must be defined once, in crates/pm/src/control.rs; found in:" "${defs:-<none>}"
fi
hits=$(grep -rn "from_raw_parts_mut" --include="*.rs" crates/ || true)
if [ -n "$hits" ]; then
    err "from_raw_parts_mut under crates/ (the control page is atomic words, never a &mut byte view):" "$hits"
fi
hits=$(grep -rn "Mutex\|RwLock" --include="*.rs" crates/pm/src/backend/ || true)
if [ -n "$hits" ]; then
    err "lock in crates/pm/src/backend/ (one writer per control-page record replaces it; see control.rs):" "$hits"
fi
sites=$(grep -rn "^[^/]*unsafe" --include="*.rs" crates/pm/src/backend/ || true)
if [ "$(echo "$sites" | grep -c .)" -gt 8 ]; then
    err "more than 8 unsafe sites in crates/pm/src/backend/ (two marker impls, mmap, msync, munmap, words(), control(), and the volatile backend's zero-on-demand u64 -> AtomicU64 box cast):" "$sites"
fi
methods=$(awk '/^pub trait MemBackend/ { on = 1 } on && /^}/ { on = 0 } on && /^    fn / { print FILENAME ":" FNR ": " $0 }' \
    crates/pm/src/backend/mod.rs)
if [ "$(echo "$methods" | grep -c .)" -gt 7 ]; then
    err "MemBackend declares more than 7 methods (a backend is words + one control page + three flushes):" "$methods"
fi
hits=$(grep -rn "\.backend()" --include="*.rs" crates src tests examples | grep -v "^crates/pm/" || true)
if [ -n "$hits" ]; then
    err ".backend() outside crates/pm (use PersistentMemory::control() or the Machine methods):" "$hits"
fi
hits=$(grep -rn "quiesce_word\|QUIESCE_\|QuiesceFollower\|cluster_round\|cluster_park\|checkpoint_every" \
    --include="*.rs" crates src tests examples || true)
if [ -n "$hits" ]; then
    err "the deleted cross-process checkpoint quiesce is back (prove an S-shard round first; see cluster.rs):" "$hits"
fi

# --- 10. one scheduler-capsule form ----------------------------------------------
hits=$(grep -rn "sched_capsule(\|capsule_unchecked(" --include="*.rs" crates/ || true)
if [ -n "$hits" ]; then
    err "closure-built scheduler capsule under crates/ (a scheduler capsule is a SchedStep record; see crates/sched/src/step.rs):" "$hits"
fi
hits=$(grep -rn "adoptable_handle\|remote_local_adoptable\|fn resolvable" --include="*.rs" crates/ || true)
if [ -n "$hits" ]; then
    err "the in-process/remote adoption split is back (every restart pointer decodes from words; one rule, restart_pointer_decodes):" "$hits"
fi
defs=$(grep -rl "const SCHED_ARG_WORDS" --include="*.rs" crates/ || true)
if [ "$defs" != "crates/core/src/capsule.rs" ]; then
    err "the scheduler record's word count must be defined once, in crates/core/src/capsule.rs; found in:" "${defs:-<none>}"
fi

# --- 11. one ordering point per instruction ----------------------------------------
hits=$(body_scan crates/pm/src/mem.rs 'write_range' 'Ordering::(Relaxed|Acquire|Release|AcqRel)' outside \
    | grep -v "has_observer" || true)
if [ -n "$hits" ]; then
    err "non-SeqCst ordering on the word array outside write_range (a word instruction is SeqCst; only a range write's interior words are Release):" "$hits"
fi

# --- 12. no dangling citation ----------------------------------------------------------
known=$(find . -name "*.md" -not -path "./target/*" -not -path "./vendor/*" -not -path "*/target/*" | sed 's|^\./||')
hits=$(grep -rnoE "[A-Za-z0-9_./-]+\.md\b" --include="*.rs" crates src tests examples \
    | while IFS= read -r hit; do
        cited=${hit##*:}
        if ! echo "$known" | grep -qE "(^|/)${cited#./}\$"; then
            echo "$hit"
        fi
    done)
if [ -n "$hits" ]; then
    err "source comment cites a *.md file that is not in the tree (move the note to where it is cited):" "$hits"
fi

# --- 13. a frame is run, not rehydrated ---------------------------------------------------
hits=$(grep -rn "CapsuleCtor\|CtorCache\|instantiate_parts\|arrive_cam_frame\|arrive_check_frame" \
    --include="*.rs" crates/ || true)
if [ -n "$hits" ]; then
    err "the rehydration-constructor machinery is back (a registry entry is a decode and a body over the frame's words):" "$hits"
fi
hits=$(for f in crates/core/src/dsl.rs crates/core/src/registry.rs; do
    awk '/^#\[cfg\(test\)\]/ { exit }
         $0 !~ /^[ \t]*\/\// && /(^|[^A-Za-z0-9_])capsule\(/ { print FILENAME ":" FNR ": " $0 }' "$f"
done)
if [ -n "$hits" ]; then
    err "a frame is run, not rehydrated: dsl.rs / registry.rs build a closure capsule (register a decode and a body instead):" "$hits"
fi

# --- 14. one capsule representation ------------------------------------------------------
hits=$(grep -rnE "\bComp\b|\b(comp_step|comp_fork2|par_all|run_closure|new_closure|FnCapsule|install_jump|preregister|register_at)\b|Active::Capsule|Next::Jump\(" \
    --include="*.rs" crates src tests examples || true)
if [ -n "$hits" ]; then
    err "the closure machine is back (every capsule is a registered frame or a scheduler record; build DAGs with the DSL):" "$hits"
fi

# --- 15. one way work enters a cluster ---------------------------------------------------
hits=$({
    grep -rnE "plant_roots|\"cluster/(arrive|check)\"|set_live_stealing|in_victim_set|subtree_complete" \
        --include="*.rs" crates src tests examples
    grep -HnE "fn service\(" crates/sched/src/cluster.rs
} || true)
if [ -n "$hits" ]; then
    err "a second way into a cluster is back (a batch run publishes its shard jobs on the injector ring; see cluster.rs):" "$hits"
fi

# --- 16. one session entry, one recover ---------------------------------------------
hits=$({
    grep -rnE "run_persistent_impl|recover_persistent_impl|launch_root|run_root_on|fn fresh_run" \
        --include="*.rs" crates src tests examples
    grep -HnE "set_done" crates/sched/src/sim.rs
} || true)
if [ -n "$hits" ]; then
    err "a second session entry or a second recovery is back (a Runtime is a one-worker cluster; see driver.rs):" "$hits"
fi

# --- 17. one rescuer ------------------------------------------------------------
hits=$({
    grep -rnE "fn rescue\(|\.rescue\(|StealAction::Rescue|DropRescue|RescueCompleted" \
        --include="*.rs" crates src tests examples
    grep -HnE "service_queue" crates/sched/src/supervisor.rs
} || true)
if [ -n "$hits" ]; then
    err "a second rescuer for a dead claimant is back (a puller seats before it claims; adoption finishes every claimed job, see service.rs):" "$hits"
fi

# --- 18. one Figure 3 ------------------------------------------------------------
hits=$(grep -rnE "StealModel|StealMutation|StealAction|StealSt|model::steal" \
    --include="*.rs" crates src tests examples || true)
if [ -n "$hits" ]; then
    err "a twin of the Figure 3 scheduler is back (the explorer checks the engine itself; see model/engine.rs):" "$hits"
fi

# --- 19. a flush pays for its dirty pages ---------------------------------------------
hits=$(awk '/pub fn drain\(/ { body = 1 }
            body && /0\.\.self\.pages/ { print FILENAME ":" FNR ": " $0 }
            body && /^    }$/ { exit }' crates/pm/src/dirty.rs)
if [ -n "$hits" ]; then
    err "a flush pays for its dirty pages: DirtyTracker::drain walks the file page by page (walk the bitmap a word at a time, swapping only dirty words):" "$hits"
fi

# --- 20. one join capsule --------------------------------------------------------
hits=$(grep -rnE "arrive_check|CORE_ID_JOIN_CHECK|\"join-check\"" \
    --include="*.rs" crates src tests examples || true)
if [ -n "$hits" ]; then
    err "a second join capsule is back (an arrival CAMs and reads the set-once cell in one capsule; see join.rs):" "$hits"
fi

# --- 21. a fork pays three records ------------------------------------------------
hits=$({
    grep -rnE "\b(PushBottomRead|PopBottomCheck)\b" --include="*.rs" crates src tests examples
    awk '/^            ClearBottom\(\)( \| PopBottomRead\(\))? => \{/ { arm = 1 }
         arm && /go\(PopBottomRead\(/ { print FILENAME ":" FNR ": " $0 }
         arm && /^            }$/ { arm = 0 }' crates/sched/src/capsules.rs
} || true)
if [ -n "$hits" ]; then
    err "a fork pays three scheduler records: pushBottom's reads end the forking capsule, clearBottom runs popBottom/read's body and popBottom/cam checks its own CAM (see capsules.rs):" "$hits"
fi

# --- 22. an exhausted pool is an error ---------------------------------------------
hits=$(awk '/pub fn palloc\(/ { body = 1 }
            body && /panic!|assert|unreachable!|\.expect\(|\.unwrap\(/ { print FILENAME ":" FNR ": " $0 }
            body && /^    }$/ { exit }' crates/pm/src/proc.rs)
if [ -z "$(grep -n 'pub fn palloc(' crates/pm/src/proc.rs)" ]; then
    hits="crates/pm/src/proc.rs: ProcCtx::palloc not found"
fi
if [ -n "$hits" ]; then
    err "an exhausted pool is an error, not a panic: ProcCtx::palloc returns Fault::Exhausted and keeps the PmError (see proc.rs):" "$hits"
fi

# --- 23. one restart --------------------------------------------------------------
hits=$({
    grep -rnE "\b(StealInFlight|MidPush|InvalidTakenRef)\b" --include="*.rs" crates src tests examples
    grep -nHE "\b(harvest_frontier|capture_frontier)\b" crates/sched/src/driver.rs
} || true)
if [ -n "$hits" ]; then
    err "one restart: recovery seats each processor at its own restart pointer, with no harvest beside it (see driver.rs):" "$hits"
fi

# --- 24. a costed range is one call -----------------------------------------------
hits=$(for f in $(find crates/algs/src -name "*.rs") crates/core/src/runner.rs; do
    awk '/^#\[cfg\(test\)\]/ { exit }
         $0 !~ /^[ \t]*\/\// && /\.(write_block|read_block_into)\(/ { print FILENAME ":" FNR ": " $0 }' "$f"
done)
# block_body NAME: the body of `pub fn NAME(` in proc.rs, brace-matched.
block_body() {
    awk -v name="$1" '
        $0 ~ ("pub fn " name "\\(") { infn = 1; depth = 0 }
        infn {
            print FILENAME ":" FNR ": " $0
            line = $0
            depth += gsub(/\{/, "", line)
            depth -= gsub(/\}/, "", line)
            if (depth <= 0 && $0 ~ /\}/) exit
        }' crates/pm/src/proc.rs
}
for pair in write_block:write_range read_block_into:read_range; do
    body=$(block_body "${pair%%:*}")
    if [ -z "$body" ] || ! echo "$body" | grep -q "self\.${pair##*:}("; then
        hits="$hits
crates/pm/src/proc.rs: ProcCtx::${pair%%:*} does not delegate to ProcCtx::${pair##*:}"
    fi
    hits="$hits
$(echo "$body" | grep -E "fault_point|capsule_work|self\.mem\." || true)"
done
hits=$(echo "$hits" | sed '/^$/d')
if [ -n "$hits" ]; then
    err "a costed range is one call: move block runs with ProcCtx::write_range / read_range, and keep write_block / read_block_into its one-block case (see proc.rs):" "$hits"
fi

if [ "$fail" -ne 0 ]; then
    echo "lint_invariants: FAILED" >&2
    exit 1
fi
echo "lint_invariants: ok (CAS quarantined, slot orderings SeqCst, unsafe documented, hot path lock-free and allocation-free, one supervisor, one algorithm form, one trace stream, one control-page codec, one scheduler-capsule form, one ordering point per range write, no dangling citation, a frame is run not rehydrated, one capsule representation, one way work enters a cluster, one session entry and one recover, one rescuer, one Figure 3, a flush pays for its dirty pages, one join capsule, a fork pays three records, an exhausted pool is an error, one restart, a costed range is one call)"
