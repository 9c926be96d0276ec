//! The run manifest printed with every result: what produced the
//! numbers, so they can be read without knowing the host.

use std::fs;
use std::path::Path;

use ev8_trace::codec::VERSION as WIRE_VERSION;
use ev8_trace::corpus::CORPUS_VERSION;
use ev8_workloads::program::GENERATOR_VERSION;

use crate::suite::{Measured, Settings, Workload, SETUP_REPS};

/// The checkout's git revision, read from `.git` without running git;
/// `unknown` outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &Path| fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let git = Path::new(".git");
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Quotes `s` as a JSON string.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The manifest of one run as a one-line JSON object.
pub fn manifest(w: Workload, s: &Settings, seconds: f64, trace: bool, m: &Measured) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let corpus_dir = match std::env::var_os("EV8_CORPUS_DIR") {
        Some(_) => "set, ignored",
        None => "unset",
    };
    let sessions = m.session_ms().len();
    let fields: Vec<(&str, String)> = vec![
        ("git_rev", json_str(&git_rev())),
        ("nproc", nproc.to_string()),
        ("workload", json_str(w.name())),
        ("seed", s.seed.to_string()),
        ("scale", w.scale(s).to_string()),
        ("generator_version", GENERATOR_VERSION.to_string()),
        ("wire_version", WIRE_VERSION.to_string()),
        ("corpus_version", CORPUS_VERSION.to_string()),
        (
            "protocol_version",
            ev8_server::proto::PROTOCOL_VERSION.to_string(),
        ),
        ("workers", s.workers.to_string()),
        (
            "connections",
            u8::from(w == Workload::ServerSessions).to_string(),
        ),
        ("setup_samples", SETUP_REPS.to_string()),
        ("job_samples", m.jobs.len().to_string()),
        ("session_samples", sessions.to_string()),
        ("seconds", seconds.to_string()),
        ("trace", u8::from(trace).to_string()),
        ("references", json_str(&m.ref_source)),
        ("rss_reset", m.rss_reset.to_string()),
        ("ev8_corpus_dir", json_str(corpus_dir)),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
