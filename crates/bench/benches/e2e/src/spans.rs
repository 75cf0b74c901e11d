//! The benchmark's own in-memory spans: `{name, op_id, parent, start_ns,
//! end_ns}` plus allocation deltas, recorded around each call into an
//! engine crate during a traced run and written out when it ends. The
//! engine's `Tracer` stays off; nothing here is visible to the engine.

use crate::alloc;
use std::io::Write;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One completed (or still open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Stage name, `<crate>.<stage>`.
    pub name: &'static str,
    /// The op this span belongs to; spans of one op share it.
    pub op_id: u32,
    /// Index of the enclosing span in the same list, or [`NO_PARENT`].
    pub parent: u32,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Allocation calls made while the span was open.
    pub allocs: u64,
    /// Bytes requested while the span was open.
    pub alloc_bytes: u64,
}

impl Span {
    /// The span's duration.
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder for one traced pass.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op_id: u32,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op_id: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Spans opened from now on belong to op `op_id`.
    pub fn set_op(&mut self, op_id: u32) {
        self.op_id = op_id;
    }

    /// Open a span under the innermost open one; returns its index.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let (allocs, alloc_bytes) = alloc::snapshot();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op_id: self.op_id,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            start_ns,
            end_ns: start_ns,
            // Hold the start readings until `end` turns them into deltas.
            allocs,
            alloc_bytes,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: u32) {
        let end_ns = self.now_ns();
        let (allocs, alloc_bytes) = alloc::snapshot();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.allocs = allocs - span.allocs;
        span.alloc_bytes = alloc_bytes - span.alloc_bytes;
    }

    /// Run `f` inside a leaf span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as CSV, one per line.
    pub fn write_csv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "name,op_id,parent,start_ns,end_ns,allocs,alloc_bytes")?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{},{},{},{},{},{},{}",
                s.name, s.op_id, parent, s.start_ns, s.end_ns, s.allocs, s.alloc_bytes
            )?;
        }
        Ok(())
    }
}
