//! Parser for `bicord-trace/1` JSONL timelines.
//!
//! A trace file (written by `JsonlSink`, see `docs/OBSERVABILITY.md`) is
//! one [`TraceHeader`] line, zero or more flat single-line event records,
//! and a `{"summary":true,...}` trailer. This module reads the whole file
//! into a [`TraceFile`]: every line goes through [`json::parse`], so any
//! valid JSON layout of a record reads the same, and every record becomes
//! a [`Record`] whose fields keep their JSON names and primitive values,
//! so the analytics layer never re-parses text.
//!
//! Parsing is **closed-world**: every `ev` kind must be listed in
//! [`KNOWN_KINDS`]. An unknown kind is a hard [`TraceError::UnknownKind`]
//! naming the offender — when a new `TraceEvent` variant is added to the
//! sinks, the analyzer (this list, the summarizer's section routing, and
//! the exhaustive round-trip test in `tests/record_kinds.rs`) must learn
//! it in the same change, instead of silently dropping records.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use bicord_sim::json::{self, Json};
use bicord_sim::obs::TraceHeader;

/// Every record kind the `bicord-trace/1` sinks emit, in taxonomy order
/// (the table in `docs/OBSERVABILITY.md`). The exhaustive round-trip test
/// (`tests/record_kinds.rs`) fails with the kind's name if the emitters
/// and this list ever diverge.
pub const KNOWN_KINDS: &[&str] = &[
    "dequeue",
    "csi_classified",
    "detection",
    "channel_request",
    "reservation",
    "white_space",
    "n_round",
    "estimate",
    "re_estimate",
    "burst_complete",
    "packet_delivered",
    "trial_resolved",
    "medium_cache_invalidated",
    "medium_cache_stats",
    "medium_grid_stats",
    "fault_control_lost",
    "fault_cts_lost",
    "fault_phantom_csi",
    "fault_churn",
    "signaling_backoff",
    "csma_fallback",
    "learning_abort",
    "guard_stall",
    "guard_liveness",
    "guard_conservation",
];

/// One primitive field value of a trace record.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A non-negative integer (`t_us`, counters, node indices).
    U64(u64),
    /// A float (`deviation`).
    F64(f64),
    /// `true` / `false` (`high`, `detected`).
    Bool(bool),
    /// A bare string (`phase`, `reason`, `invariant`, dequeue `kind`).
    Str(String),
}

impl Value {
    /// The value as `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// One parsed event record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Virtual timestamp in microseconds.
    pub t_us: u64,
    /// The `ev` kind label (guaranteed to be in [`KNOWN_KINDS`]).
    pub kind: String,
    /// The record's extra fields, in file order, excluding `t_us`/`ev`.
    pub fields: Vec<(String, Value)>,
}

impl Record {
    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// The `node` field, when the record is node-attributed.
    pub fn node(&self) -> Option<u64> {
        self.field("node").and_then(Value::as_u64)
    }
}

/// The parsed `{"summary":true,...}` trailer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Records the sink reported writing (excludes header and trailer).
    pub events: u64,
    /// Aggregated per-DES-event-kind dequeue counts.
    pub dequeues: BTreeMap<String, u64>,
}

/// A fully parsed `bicord-trace/1` file.
#[derive(Debug, Clone)]
pub struct TraceFile {
    /// The schema-versioned header line.
    pub header: TraceHeader,
    /// All event records, in file (= virtual time) order.
    pub records: Vec<Record>,
    /// The summary trailer, if the run finished cleanly.
    pub summary: Option<TraceSummary>,
}

/// Why a trace file failed to parse.
#[derive(Debug)]
pub enum TraceError {
    /// The file could not be read.
    Io(std::io::Error),
    /// Line 1 is not a `bicord-trace/1` header.
    BadHeader,
    /// A record line is not a single-line JSON object of the expected
    /// shape.
    BadRecord {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// A record carries an `ev` kind the analyzer does not know.
    UnknownKind {
        /// 1-based line number.
        line: usize,
        /// The offending kind label.
        kind: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "cannot read trace: {e}"),
            TraceError::BadHeader => write!(
                f,
                "line 1 is not a {} header (is this a JSONL trace written by \
                 `bicord --trace` / a bench `--trace`?)",
                bicord_sim::obs::TRACE_SCHEMA
            ),
            TraceError::BadRecord { line, reason } => {
                write!(f, "line {line}: malformed trace record: {reason}")
            }
            TraceError::UnknownKind { line, kind } => write!(
                f,
                "line {line}: unknown record kind \"{kind}\" — the trace schema grew a \
                 kind bicord_analyze does not consume yet; add it to \
                 bicord_analyze::trace::KNOWN_KINDS and route it in the summarizer"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl TraceFile {
    /// Reads and parses a trace file from disk.
    pub fn read(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let text = std::fs::read_to_string(path)?;
        Self::parse(&text)
    }

    /// Parses the full text of a trace file.
    pub fn parse(text: &str) -> Result<Self, TraceError> {
        let mut lines = text.lines().enumerate();
        let header = lines
            .next()
            .and_then(|(_, l)| TraceHeader::parse(l))
            .ok_or(TraceError::BadHeader)?;
        let mut records = Vec::new();
        let mut summary = None;
        for (idx, line) in lines {
            let line_no = idx + 1;
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let bad = |reason: String| TraceError::BadRecord {
                line: line_no,
                reason,
            };
            let Json::Obj(fields) = json::parse(line).map_err(bad)? else {
                return Err(bad("not a JSON object".to_string()));
            };
            if fields
                .iter()
                .any(|(k, v)| k == "summary" && *v == Json::Bool(true))
            {
                summary = Some(parse_summary(&fields).map_err(bad)?);
                continue;
            }
            records.push(parse_record(fields, line_no)?);
        }
        Ok(TraceFile {
            header,
            records,
            summary,
        })
    }

    /// Per-kind record counts, in [`KNOWN_KINDS`] order (kinds absent
    /// from the trace are omitted).
    pub fn populations(&self) -> Vec<(&'static str, usize)> {
        KNOWN_KINDS
            .iter()
            .filter_map(|kind| {
                let n = self.records.iter().filter(|r| r.kind == *kind).count();
                (n > 0).then_some((*kind, n))
            })
            .collect()
    }

    /// All records of one kind, in time order.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a Record> + 'a {
        self.records.iter().filter(move |r| r.kind == kind)
    }
}

/// Converts one parsed record object. The fields go into a fresh `Vec`
/// sized to hold them, so a [`TraceFile`] keeps no slack from parsing.
fn parse_record(fields: Vec<(String, Json)>, line_no: usize) -> Result<Record, TraceError> {
    let bad = |reason: String| TraceError::BadRecord {
        line: line_no,
        reason,
    };
    let mut t_us = None;
    let mut kind = None;
    let mut extra = Vec::with_capacity(fields.len().saturating_sub(2));
    for (name, json) in fields {
        let value = match json {
            Json::Str(s) => Value::Str(s),
            Json::Bool(b) => Value::Bool(b),
            json => match (json.as_u64(), json.as_f64()) {
                (Some(n), _) => Value::U64(n),
                (None, Some(x)) => Value::F64(x),
                (None, None) => {
                    return Err(bad(format!(
                        "field \"{name}\" holds a {}, not a primitive value",
                        json.kind_name()
                    )))
                }
            },
        };
        match (name.as_str(), value) {
            ("t_us", value) => t_us = value.as_u64(),
            ("ev", Value::Str(s)) => kind = Some(s),
            ("ev", _) => {}
            (_, value) => extra.push((name, value)),
        }
    }
    let t_us = t_us.ok_or_else(|| bad("missing integer \"t_us\"".to_string()))?;
    let kind = kind.ok_or_else(|| bad("missing string \"ev\"".to_string()))?;
    if !KNOWN_KINDS.contains(&kind.as_str()) {
        return Err(TraceError::UnknownKind {
            line: line_no,
            kind,
        });
    }
    Ok(Record {
        t_us,
        kind,
        fields: extra,
    })
}

/// Converts the parsed `{"summary":true,...}` trailer object.
fn parse_summary(fields: &[(String, Json)]) -> Result<TraceSummary, String> {
    let mut summary = TraceSummary::default();
    for (name, value) in fields {
        match name.as_str() {
            "events" => summary.events = value.as_u64().ok_or("bad \"events\" count")?,
            "dequeues" => {
                let map = value.as_object().ok_or("\"dequeues\" is not an object")?;
                for (kind, n) in map {
                    let n = n
                        .as_u64()
                        .ok_or_else(|| format!("bad dequeue count for \"{kind}\""))?;
                    summary.dequeues.insert(kind.clone(), n);
                }
            }
            _ => {}
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
{\"schema\":\"bicord-trace/1\",\"seed\":42,\"mode\":\"bicord\",\"duration_us\":2000000}
{\"t_us\":100,\"ev\":\"channel_request\",\"node\":0}
{\"t_us\":250,\"ev\":\"reservation\",\"ws_us\":30000}
{\"t_us\":300,\"ev\":\"white_space\",\"nav_us\":28000}
{\"t_us\":400,\"ev\":\"csi_classified\",\"deviation\":0.25,\"high\":true}
{\"t_us\":900,\"ev\":\"estimate\",\"estimate_us\":42000,\"rounds\":3,\"phase\":\"learning\"}
{\"t_us\":950,\"ev\":\"burst_complete\",\"node\":0,\"delivered\":5,\"failed\":0}
{\"summary\":true,\"events\":6,\"dequeues\":{\"Timer\":12,\"TxEnd\":4}}
";

    #[test]
    fn parses_a_full_file() {
        let t = TraceFile::parse(SAMPLE).unwrap();
        assert_eq!(t.header.seed, 42);
        assert_eq!(t.records.len(), 6);
        assert_eq!(t.records[0].kind, "channel_request");
        assert_eq!(t.records[0].node(), Some(0));
        assert_eq!(t.records[3].field("deviation"), Some(&Value::F64(0.25)));
        assert_eq!(
            t.records[4].field("phase").unwrap().as_str(),
            Some("learning")
        );
        let s = t.summary.unwrap();
        assert_eq!(s.events, 6);
        assert_eq!(s.dequeues.get("Timer"), Some(&12));
        assert_eq!(s.dequeues.get("TxEnd"), Some(&4));
    }

    #[test]
    fn populations_follow_taxonomy_order() {
        let t = TraceFile::parse(SAMPLE).unwrap();
        let pops = t.populations();
        assert_eq!(
            pops,
            vec![
                ("csi_classified", 1),
                ("channel_request", 1),
                ("reservation", 1),
                ("white_space", 1),
                ("estimate", 1),
                ("burst_complete", 1),
            ]
        );
    }

    #[test]
    fn rejects_missing_or_foreign_header() {
        assert!(matches!(
            TraceFile::parse("not json\n"),
            Err(TraceError::BadHeader)
        ));
        let foreign =
            "{\"schema\":\"bicord-trace/999\",\"seed\":1,\"mode\":\"x\",\"duration_us\":1}\n";
        assert!(matches!(
            TraceFile::parse(foreign),
            Err(TraceError::BadHeader)
        ));
    }

    #[test]
    fn unknown_kind_is_a_naming_error() {
        let text = "{\"schema\":\"bicord-trace/1\",\"seed\":1,\"mode\":\"x\",\"duration_us\":1}\n\
                    {\"t_us\":5,\"ev\":\"warp_drive\",\"x\":1}\n";
        let err = TraceFile::parse(text).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("warp_drive"), "{msg}");
        assert!(msg.contains("KNOWN_KINDS"), "{msg}");
        assert!(msg.contains("line 2"), "{msg}");
    }

    #[test]
    fn malformed_record_names_the_line() {
        let text = "{\"schema\":\"bicord-trace/1\",\"seed\":1,\"mode\":\"x\",\"duration_us\":1}\n\
                    {\"ev\":\"reservation\",\"ws_us\":1}\n";
        let err = TraceFile::parse(text).unwrap_err();
        assert!(err.to_string().contains("t_us"), "{err}");
    }

    #[test]
    fn escaped_quotes_in_strings_are_unescaped() {
        let text = "{\"schema\":\"bicord-trace/1\",\"seed\":1,\"mode\":\"x\",\"duration_us\":1}\n\
                    {\"t_us\":5,\"ev\":\"csma_fallback\",\"reason\":\"a \\\"b\\\" c\"}\n";
        let t = TraceFile::parse(text).unwrap();
        assert_eq!(
            t.records[0].field("reason").unwrap().as_str(),
            Some("a \"b\" c")
        );
    }

    #[test]
    fn respaced_lines_parse_like_compact_ones() {
        let respaced = SAMPLE.replace("\":", "\": ").replace(",\"", ", \"");
        let a = TraceFile::parse(SAMPLE).unwrap();
        let b = TraceFile::parse(&respaced).unwrap();
        assert_eq!(a.header, b.header);
        assert_eq!(a.records, b.records);
        assert_eq!(a.summary, b.summary);
    }

    #[test]
    fn nested_values_and_summary_markers_in_strings_are_not_misread() {
        let header =
            "{\"schema\":\"bicord-trace/1\",\"seed\":1,\"mode\":\"x\",\"duration_us\":1}\n";
        let nested = format!("{header}{{\"t_us\":5,\"ev\":\"reservation\",\"ws_us\":[1]}}\n");
        let err = TraceFile::parse(&nested).unwrap_err().to_string();
        assert!(err.contains("ws_us") && err.contains("array"), "{err}");
        let marker = format!(
            "{header}{{\"t_us\":5,\"ev\":\"csma_fallback\",\"reason\":\"\\\"summary\\\":true\"}}\n"
        );
        let t = TraceFile::parse(&marker).unwrap();
        assert_eq!(t.records.len(), 1);
        assert!(t.summary.is_none());
    }
}
