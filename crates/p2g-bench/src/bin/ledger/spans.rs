//! Ledger-side spans: one record around every public call the ledger
//! makes into the framework during the traced run. Each thread records
//! into its own `Recorder` (no shared lock on the measured path); the
//! recorders are merged and written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// "No frame": the span belongs to a phase or job, not to one frame.
pub const NO_AGE: u64 = u64::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<u32>,
    /// Frame identifier `(session, age)`: spans of one frame share it.
    pub session: u32,
    pub age: u64,
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    /// `epoch` is shared by every recorder of a run so their clocks agree.
    pub fn new(enabled: bool, epoch: Instant, thread: u32) -> Recorder {
        Recorder {
            enabled,
            epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, session: u32, age: u64) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.iter().rev().nth(1).copied(),
            session,
            age,
        });
    }

    /// Close the innermost open span. `age` overrides the frame id for
    /// calls that only learn it on return (`recv`); pass [`NO_AGE`] to keep.
    pub fn exit(&mut self, age: u64) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        if let Some(i) = self.open.pop() {
            let span = &mut self.spans[i as usize];
            span.end_ns = now;
            if age != NO_AGE {
                span.age = age;
            }
        }
    }

    /// Time a call as one span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        session: u32,
        age: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        self.enter(name, session, age);
        let out = f();
        self.exit(NO_AGE);
        out
    }
}

/// The merged spans of a run.
#[derive(Default)]
pub struct SpanLog {
    /// `(thread, spans)`; parents index into the same thread's list.
    threads: Vec<(u32, Vec<Span>)>,
}

impl SpanLog {
    pub fn absorb(&mut self, rec: Recorder) {
        if !rec.spans.is_empty() {
            self.threads.push((rec.thread, rec.spans));
        }
    }

    pub fn len(&self) -> usize {
        self.threads.iter().map(|(_, s)| s.len()).sum()
    }

    pub fn iter(&self) -> impl Iterator<Item = &Span> {
        self.threads.iter().flat_map(|(_, s)| s.iter())
    }

    /// Self time per span name, in nanoseconds: each span's duration minus
    /// the part of it its direct children cover.
    pub fn self_time_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (_, spans) in &self.threads {
            let mut child_ns = vec![0u64; spans.len()];
            for s in spans {
                if let Some(p) = s.parent {
                    child_ns[p as usize] += s.end_ns - s.start_ns;
                }
            }
            for (s, covered) in spans.iter().zip(child_ns) {
                *out.entry(s.name).or_default() += (s.end_ns - s.start_ns).saturating_sub(covered);
            }
        }
        out
    }

    /// One JSON object per line: name, start, end, parent, thread and the
    /// frame id. `id` is `thread:index`, unique within the file.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (thread, spans) in &self.threads {
            for (i, s) in spans.iter().enumerate() {
                let _ = write!(
                    out,
                    "{{\"id\": \"{thread}:{i}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": ",
                    s.name, s.start_ns, s.end_ns
                );
                match s.parent {
                    Some(p) => {
                        let _ = write!(out, "\"{thread}:{p}\"");
                    }
                    None => out.push_str("null"),
                }
                let _ = write!(out, ", \"thread\": {thread}, \"session\": {}", s.session);
                if s.age != NO_AGE {
                    let _ = write!(out, ", \"age\": {}", s.age);
                }
                out.push_str("}\n");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = Recorder::new(true, Instant::now(), 0);
        rec.enter("job", 0, NO_AGE);
        rec.span("launch", 0, NO_AGE, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.enter("recv", 1, NO_AGE);
        rec.exit(7);
        rec.exit(NO_AGE);
        let mut log = SpanLog::default();
        log.absorb(rec);
        assert_eq!(log.len(), 3);
        let spans: Vec<&Span> = log.iter().collect();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].age, 7, "recv learns its frame on return");
        let total = spans[0].end_ns - spans[0].start_ns;
        let selfs = log.self_time_ns();
        assert!(selfs["launch"] >= 2_000_000);
        assert_eq!(selfs["job"] + selfs["launch"] + selfs["recv"], total);
        assert_eq!(log.to_jsonl().lines().count(), 3);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false, Instant::now(), 0);
        assert_eq!(rec.span("x", 0, 0, || 5), 5);
        let mut log = SpanLog::default();
        log.absorb(rec);
        assert_eq!(log.len(), 0);
    }
}
