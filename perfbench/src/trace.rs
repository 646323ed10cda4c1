//! Spans for the traced run: one per call the benchmark makes into a
//! layer, kept in memory and written out when the run ends.

use std::io::Write as _;
use std::time::Instant;

/// One timed call. Spans of one push share `id` = (TLD, serial);
/// `parent` names the span that caused this one ("push" is the
/// push's whole due-to-answer interval).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: (u16, u32),
    pub parent: Option<&'static str>,
    pub start: Instant,
    pub end: Instant,
}

/// Write `spans` as JSON lines, times in microseconds since `epoch`.
pub fn write(path: &str, epoch: Instant, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let at = |t: Instant| t.saturating_duration_since(epoch).as_secs_f64() * 1e6;
        writeln!(
            out,
            "{{\"name\":\"{}\",\"tld\":{},\"serial\":{},\"parent\":{},\"start_us\":{:.1},\"end_us\":{:.1}}}",
            s.name,
            s.id.0,
            s.id.1,
            s.parent.map_or("null".to_string(), |p| format!("\"{p}\"")),
            at(s.start),
            at(s.end),
        )?;
    }
    out.flush()
}
