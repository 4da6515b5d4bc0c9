//! In-memory spans of the traced pass, written once as a chrome trace.

use std::time::Instant;

use eeat_obs::json::{self, Json};

/// One timed interval at a layer boundary.
struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
    cell: usize,
}

/// Every span of one process, plus the cell names they refer to.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    cells: Vec<String>,
}

impl Spans {
    /// An empty recorder whose time axis starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            cells: Vec::new(),
        }
    }

    /// Opens the root span of a new cell; returns `(cell, span)` ids.
    pub fn open_cell(&mut self, id: String) -> (usize, usize) {
        self.cells.push(id);
        let cell = self.cells.len() - 1;
        let now = Instant::now();
        (cell, self.record("cell", now, now, None, cell))
    }

    /// Ends span `span` now.
    pub fn close(&mut self, span: usize) {
        self.spans[span].end = Instant::now();
    }

    /// Records a finished span; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        cell: usize,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            cell,
        });
        self.spans.len() - 1
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as a chrome://tracing document: one `X` event per span
    /// (microseconds since the recorder started), with the span id, its
    /// parent's id and the cell in `args`.
    pub fn to_chrome_json(&self, process: &str) -> String {
        let micros = |t: Instant| (t - self.epoch).as_nanos() as f64 / 1e3;
        let mut events = vec![json::obj(vec![
            ("name", json::str("process_name")),
            ("ph", json::str("M")),
            ("pid", json::num(1.0)),
            ("tid", json::num(1.0)),
            ("args", json::obj(vec![("name", json::str(process))])),
        ])];
        for (id, span) in self.spans.iter().enumerate() {
            events.push(json::obj(vec![
                ("name", json::str(span.name)),
                ("ph", json::str("X")),
                ("pid", json::num(1.0)),
                ("tid", json::num(1.0)),
                ("ts", json::num(micros(span.start))),
                ("dur", json::num(micros(span.end) - micros(span.start))),
                (
                    "args",
                    json::obj(vec![
                        ("span", json::num(id as f64)),
                        (
                            "parent",
                            span.parent.map_or(Json::Null, |p| json::num(p as f64)),
                        ),
                        ("cell", json::str(&self.cells[span.cell])),
                    ]),
                ),
            ]));
        }
        json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", json::str("ms")),
        ])
        .to_compact()
    }
}
