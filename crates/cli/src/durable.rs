//! Shared plumbing for the durable-state surface (`--state-dir`): the
//! per-document DTD sidecar and the recovery loader used by both the
//! serve daemon and the `xic snapshot` / `xic recover` subcommands.
//!
//! A snapshot captures the *state* of a live validator, not its
//! *configuration*: the `DTD^C` it validates against is rebuilt on
//! recovery from a small per-document sidecar, `dtd.txt`, holding the
//! structure that was actually in force (the document's internal
//! `<!DOCTYPE>` subset survives restarts through it), plus `--sigma/--lang`.
//! `--dtd` never applies to a recovered document: the snapshot's stored
//! structural violations were computed under the sidecar's content
//! models. Recovering under a different `Σ` than the snapshot was taken
//! with is rejected by [`LiveValidator::from_state`]'s plan check.

use xic::prelude::*;
use xic::storage::{DocStore, FsyncPolicy, Recovered};

use crate::{dtdc_of, Opts};

/// The per-document DTD sidecar file name: the root element name on the
/// first line, the serialized DTD declarations after it.
pub(crate) const META_FILE: &str = "dtd.txt";

/// Opens the `--state-dir` document store, if one was configured.
/// `--fsync` defaults to `always` (an acknowledged edit survives power
/// loss).
pub(crate) fn open_store(o: &Opts) -> Result<Option<DocStore>, String> {
    let Some(dir) = &o.state_dir else {
        return Ok(None);
    };
    let policy = match o.fsync.as_deref() {
        Some(s) => FsyncPolicy::parse(s)?,
        None => FsyncPolicy::Always,
    };
    DocStore::open(dir, policy)
        .map(Some)
        .map_err(|e| e.to_string())
}

/// Writes `id`'s DTD sidecar. The document's subdirectory must already
/// exist (write the snapshot, or open the WAL, first).
pub(crate) fn write_meta(
    store: &DocStore,
    id: &str,
    structure: &DtdStructure,
) -> Result<(), String> {
    let path = store
        .snapshot_path(id)
        .map_err(|e| e.to_string())?
        .with_file_name(META_FILE);
    let body = format!("{}\n{}", structure.root(), serialize_dtd(structure));
    std::fs::write(&path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Reads `id`'s DTD sidecar back into a structure.
pub(crate) fn read_meta(store: &DocStore, id: &str) -> Result<DtdStructure, String> {
    let path = store
        .snapshot_path(id)
        .map_err(|e| e.to_string())?
        .with_file_name(META_FILE);
    let src = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let (root, dtd) = src
        .split_once('\n')
        .ok_or_else(|| format!("{}: missing root element line", path.display()))?;
    parse_dtd(dtd, root.trim()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Loads everything needed to warm-start document `id`: the `DTD^C`
/// (rebuilt from the sidecar structure plus `--sigma/--lang`) and the
/// decoded snapshot with its logged batches and open WAL.
pub(crate) fn load_doc(o: &Opts, store: &DocStore, id: &str) -> Result<(DtdC, Recovered), String> {
    let dtdc = dtdc_of(o, read_meta(store, id)?, true)?;
    let recovered = store
        .load(id)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| format!("no snapshot for doc '{id}' in {}", store.root().display()))?;
    Ok((dtdc, recovered))
}

/// Warm-starts a live validator from a loaded snapshot + WAL: decode the
/// state, then replay every logged batch on top of it. Returns the
/// validator, the WAL positioned for appending, and the batches replayed
/// (still in the log, so they count toward the next snapshot). `xic
/// recover`, serve's boot recovery and its reload after a failed WAL
/// append all come through here.
pub(crate) fn replay<'v, 'd>(
    validator: &'v Validator<'d>,
    recovered: Recovered,
    obs: &Obs,
) -> Result<(LiveValidator<'v, 'd>, Wal, u64), String> {
    let Recovered {
        state,
        batches,
        wal,
        ..
    } = recovered;
    let span = obs.span("recover.replay");
    let mut live = LiveValidator::from_state(validator, state).map_err(|e| e.to_string())?;
    for batch in &batches {
        live.apply_batch(batch)
            .map_err(|e| format!("wal replay: {}", e.error))?;
    }
    span.end();
    obs.add("recover.replays", 1);
    obs.add("recover.batches", batches.len() as u64);
    Ok((live, wal, batches.len() as u64))
}
