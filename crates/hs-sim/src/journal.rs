//! # Crash-safe campaign run journal
//!
//! An append-only record of supervised run outcomes, one JSON object per
//! line (`<campaign>.journal.jsonl`), written through
//! [`Supervision::journal`](crate::Supervision) and replayed by
//! [`Campaign::resume`](crate::Campaign::resume).
//!
//! ## Format (version 2)
//!
//! ```text
//! {"journal":"fig3","format":2,"planned":4,"pin":"1f0c…"}           header
//! {"id":0,"label":"…","outcome":"completed","stats":{…}}            per run
//! {"id":2,"label":"…","outcome":"quarantined","kind":"panicked","detail":"…"}
//! ```
//!
//! The header pins the campaign: its name, its planned run count, and
//! `pin`, a 64-bit FNV-1a digest of every run's label and `RunSpec` (their
//! `Debug` text, in run-id order). A journal whose header differs — another
//! campaign, or this one at another time scale, mode or subset — is refused
//! ([`SimError::Journal`]), and every replayed record must carry the label
//! the campaign declares for its run id. A format-1 journal has no pin, so
//! it is refused too.
//!
//! A line is durable only if it ends in `\n`: every record is written and
//! flushed as one line, newline included, so a crash can leave at most one
//! torn line, at the end. Before appending, resume truncates the file after
//! its last newline, so torn bytes never prefix a new record (the run they
//! described re-executes); when no complete header line is left, it starts
//! a fresh journal. Unparseable text in a complete line is corruption.
//!
//! Journal *line order* is completion order — nondeterministic under a
//! parallel pool. That is fine: replay keys records by stable run id, and
//! the report is assembled in id order, so resume stays byte-identical to
//! an uninterrupted run.

use crate::campaign::Campaign;
use crate::error::SimError;
use crate::json::Json;
use crate::stats::SimStats;
use crate::supervise::{Done, QuarantinedRun};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;

/// The journal format [`header`] writes and [`replay`] accepts.
const FORMAT: u64 = 2;

/// The append side of a run journal.
///
/// Appends are serialized through a mutex and flushed per line. Write
/// errors do not kill workers mid-run; they are latched and surfaced once
/// by [`Journal::flush`].
#[derive(Debug)]
pub(crate) struct Journal {
    file: Mutex<File>,
    error: Mutex<Option<String>>,
    path: String,
}

impl Journal {
    /// Creates (truncating) a fresh journal and writes the header.
    pub(crate) fn create(path: &Path, campaign: &Campaign) -> Result<Journal, SimError> {
        let file = File::create(path).map_err(|e| unusable(path, e))?;
        let journal = Journal {
            file: Mutex::new(file),
            error: Mutex::new(None),
            path: path.display().to_string(),
        };
        journal.line(&header(campaign));
        journal.flush()?;
        Ok(journal)
    }

    /// Opens an existing journal for resume — validating its header
    /// against `campaign`, replaying its durable records as `(run id,
    /// outcome)` pairs and truncating the torn tail after its last newline
    /// — or creates a fresh one if `path` does not exist or holds no
    /// complete header line.
    pub(crate) fn open_or_create(
        path: &Path,
        campaign: &Campaign,
    ) -> Result<(Journal, Vec<(usize, Done)>), SimError> {
        let bytes = match std::fs::read(path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            read => read.map_err(|e| unusable(path, e))?,
        };
        let durable = bytes
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |nl| nl + 1);
        if durable == 0 {
            return Ok((Journal::create(path, campaign)?, Vec::new()));
        }
        let text = std::str::from_utf8(&bytes[..durable])
            .map_err(|e| unusable(path, format!("not UTF-8: {e}")))?;
        let entries = replay(text, campaign).map_err(|detail| unusable(path, detail))?;
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| unusable(path, e))?;
        file.set_len(durable as u64)
            .map_err(|e| unusable(path, e))?;
        Ok((
            Journal {
                file: Mutex::new(file),
                error: Mutex::new(None),
                path: path.display().to_string(),
            },
            entries,
        ))
    }

    /// Appends a completed-run record.
    pub(crate) fn completed(&self, id: usize, label: &str, stats: &SimStats) {
        self.line(&Json::Obj(vec![
            ("id".into(), Json::U64(id as u64)),
            ("label".into(), Json::Str(label.to_string())),
            ("outcome".into(), Json::Str("completed".into())),
            ("stats".into(), stats.to_json()),
        ]));
    }

    /// Appends a quarantined-run record.
    pub(crate) fn quarantined(&self, q: &QuarantinedRun) {
        let Json::Obj(mut fields) = q.to_json() else {
            unreachable!("QuarantinedRun::to_json returns an object")
        };
        fields.insert(2, ("outcome".into(), Json::Str("quarantined".into())));
        self.line(&Json::Obj(fields));
    }

    /// Surfaces any latched append error.
    pub(crate) fn flush(&self) -> Result<(), SimError> {
        match self
            .error
            .lock()
            .expect("journal error latch poisoned")
            .take()
        {
            None => Ok(()),
            Some(detail) => Err(SimError::Journal {
                detail: format!("{}: {detail}", self.path),
            }),
        }
    }

    /// Writes one record + newline and flushes it to the OS. The write
    /// happens under the file lock, so concurrent workers cannot
    /// interleave bytes within a line.
    fn line(&self, record: &Json) {
        let mut text = record.to_string_compact();
        text.push('\n');
        let mut file = self.file.lock().expect("journal file poisoned");
        let result = file.write_all(text.as_bytes()).and_then(|()| file.flush());
        if let Err(e) = result {
            let mut latch = self.error.lock().expect("journal error latch poisoned");
            latch.get_or_insert_with(|| format!("append failed: {e}"));
        }
    }
}

fn header(campaign: &Campaign) -> Json {
    Json::Obj(vec![
        ("journal".into(), Json::Str(campaign.name().to_string())),
        ("format".into(), Json::U64(FORMAT)),
        ("planned".into(), Json::U64(campaign.len() as u64)),
        ("pin".into(), Json::Str(pin(campaign))),
    ])
}

/// 64-bit FNV-1a over every run's label and `RunSpec` `Debug` text, in
/// run-id order, as 16 hex digits.
fn pin(campaign: &Campaign) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for run in campaign.runs() {
        for byte in format!("{:?} {:?}\n", run.label, run.spec).bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

fn unusable(path: &Path, detail: impl std::fmt::Display) -> SimError {
    SimError::Journal {
        detail: format!("{}: {detail}", path.display()),
    }
}

/// Parses and validates the durable lines of a journal (each one ended by
/// a newline, the first the header) against the campaign it claims to
/// belong to.
fn replay(text: &str, campaign: &Campaign) -> Result<Vec<(usize, Done)>, String> {
    let mut lines = text.lines();
    let head = lines.next().unwrap_or_default();
    let header = Json::parse(head).map_err(|e| format!("bad header: {e}"))?;
    let name = header
        .get("journal")
        .and_then(Json::as_str)
        .ok_or("header missing string `journal`")?;
    if name != campaign.name() {
        return Err(format!(
            "journal belongs to campaign `{name}`, not `{}`",
            campaign.name()
        ));
    }
    if header.get("format").and_then(Json::as_u64) != Some(FORMAT) {
        return Err(format!("unsupported journal `format` (expected {FORMAT})"));
    }
    let planned = header.get("planned").and_then(Json::as_u64);
    if planned != Some(campaign.len() as u64) {
        return Err(format!(
            "journal planned {planned:?} runs, campaign has {}",
            campaign.len()
        ));
    }
    let pinned = header
        .get("pin")
        .and_then(Json::as_str)
        .ok_or("header missing string `pin`")?;
    let pin = pin(campaign);
    if pinned != pin {
        return Err(format!(
            "journal was written under another configuration of campaign `{}`: it \
             pins runs {pinned}, the campaign now pins {pin} (a run's label or \
             RunSpec differs: time scale, mode, subset, policy, ...)",
            campaign.name()
        ));
    }

    let mut entries = Vec::new();
    for (i, line) in lines.enumerate() {
        let record =
            Json::parse(line).map_err(|e| format!("corrupt record on line {}: {e}", i + 2))?;
        let at = |what: &str| format!("record on line {}: {what}", i + 2);
        let id = record
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| at("missing integer `id`"))? as usize;
        let label = record
            .get("label")
            .and_then(Json::as_str)
            .ok_or_else(|| at("missing string `label`"))?;
        let Some(run) = campaign.runs().get(id) else {
            return Err(at(&format!("run id {id} out of range")));
        };
        if run.label != label {
            return Err(at(&format!(
                "run {id} is labelled `{}`, journal says `{label}`",
                run.label
            )));
        }
        let done = match record.get("outcome").and_then(Json::as_str) {
            Some("completed") => {
                let stats = record.get("stats").ok_or_else(|| at("missing `stats`"))?;
                Done::Completed(
                    SimStats::from_json(stats).map_err(|e| at(&format!("bad stats: {e}")))?,
                )
            }
            Some("quarantined") => {
                Done::Quarantined(QuarantinedRun::from_json(&record).map_err(|e| at(&e))?)
            }
            other => return Err(at(&format!("unknown outcome {other:?}"))),
        };
        entries.push((id, done));
    }
    Ok(entries)
}
