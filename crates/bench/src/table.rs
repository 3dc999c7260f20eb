//! The stdout tables of the `exp_*` binaries, and the report cells behind
//! them.
//!
//! A [`Cell`] states everything about one column at the one place its
//! value is computed — label, width, how the number renders, the value,
//! and the report key it lands under — and one [`Experiment::row`] call
//! both prints the aligned line and records every keyed cell, so the
//! printed table and the gated JSON cannot disagree. The header is built
//! from the first row's labels and widths; every later row must repeat
//! them.
//!
//! [`Experiment::row`]: crate::Experiment::row

use pg_sim::metrics::Summary;
use pg_sim::report::Report;

/// Format a float cell compactly (engineering-ish).
pub fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1000.0 || x.abs() < 0.001 {
        format!("{x:.2e}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.4}")
    }
}

/// What a cell holds, built with `.into()`. The type picks the report
/// section a keyed cell lands in: text is `meta`, an integer a counter, a
/// float a scalar, a [`Summary`] a stats entry (printed as its mean).
pub enum Value {
    /// A label, a sweep axis, or — in a numeric column — a stand-in for a
    /// value the row does not have (`"-"`, `"n/a"`), which is not recorded.
    Text(String),
    /// A count.
    Int(u64),
    /// A measurement.
    Num(f64),
    /// A cross-seed summary.
    Stat(Summary),
}

macro_rules! value_from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Value {
            fn from($v: $t) -> Value {
                $e
            }
        }
    )*};
}

value_from! {
    &str => |s| Value::Text(s.to_string()),
    String => |s| Value::Text(s),
    u64 => |v| Value::Int(v),
    u32 => |v| Value::Int(u64::from(v)),
    usize => |v| Value::Int(v as u64),
    f64 => |x| Value::Num(x),
    Summary => |s| Value::Stat(s),
}

enum Render {
    Text,
    Int,
    Eng,
    Fixed(usize),
    Percent(usize),
}

/// One cell of a row, under its column's label.
pub struct Cell {
    label: &'static str,
    width: usize,
    render: Render,
    value: Value,
    key: Option<&'static str>,
}

impl Cell {
    fn new(label: &'static str, width: usize, render: Render, value: Value) -> Cell {
        Cell {
            label,
            width,
            render,
            value,
            key: None,
        }
    }

    /// A text cell.
    pub fn text(label: &'static str, width: usize, value: impl Into<Value>) -> Cell {
        Cell::new(label, width, Render::Text, value.into())
    }

    /// An integer cell.
    pub fn int(label: &'static str, width: usize, value: impl Into<Value>) -> Cell {
        Cell::new(label, width, Render::Int, value.into())
    }

    /// A float in [`fmt`]'s engineering form.
    pub fn eng(label: &'static str, width: usize, value: impl Into<Value>) -> Cell {
        Cell::new(label, width, Render::Eng, value.into())
    }

    /// A float with `decimals` decimals.
    pub fn fixed(label: &'static str, width: usize, decimals: usize, v: impl Into<Value>) -> Cell {
        Cell::new(label, width, Render::Fixed(decimals), v.into())
    }

    /// A fraction shown as a signed percentage (`0.25` → `+25.0%`); the
    /// fraction is what is recorded.
    pub fn percent(
        label: &'static str,
        width: usize,
        decimals: usize,
        v: impl Into<Value>,
    ) -> Cell {
        Cell::new(label, width, Render::Percent(decimals), v.into())
    }

    /// Record the value under `<row prefix>.<key>`. A cell without a key
    /// is printed only (sweep axes, a value the report holds elsewhere).
    pub fn key(mut self, key: &'static str) -> Cell {
        self.key = Some(key);
        self
    }

    fn rendered(&self) -> String {
        let float = |x: f64| match self.render {
            Render::Eng => fmt(x),
            Render::Fixed(d) => format!("{x:.d$}"),
            Render::Percent(d) => format!("{:+.d$}%", 100.0 * x),
            Render::Text | Render::Int => panic!("column {:?} takes no float", self.label),
        };
        match (&self.render, &self.value) {
            (_, Value::Text(s)) => s.clone(),
            (Render::Int, Value::Int(v)) => v.to_string(),
            (_, Value::Int(_)) => panic!("column {:?} takes no integer", self.label),
            (_, Value::Num(x)) => float(*x),
            (_, Value::Stat(s)) => float(s.mean()),
        }
    }
}

/// The table being printed: its columns, once the first row has set them.
#[derive(Default)]
pub(crate) struct Table {
    columns: Option<Vec<(&'static str, usize)>>,
}

impl Table {
    /// The text of one aligned row — after the header, when this is the
    /// table's first row — with each keyed cell recorded into `report`.
    ///
    /// # Panics
    /// Panics when the row's labels and widths are not the first row's, or
    /// a value's type is not the one its column renders.
    pub(crate) fn row(&mut self, report: &mut Report, prefix: &str, cells: &[Cell]) -> String {
        let columns: Vec<_> = cells.iter().map(|c| (c.label, c.width)).collect();
        let mut out = String::new();
        match &self.columns {
            Some(first) => assert_eq!(*first, columns, "a row must repeat its table's columns"),
            None => {
                // A title line came first; then a rule, the labels spaced
                // like the cells, a rule.
                let rule = "-".repeat(columns.iter().map(|(_, w)| w + 2).sum());
                let labels: Vec<_> = columns.iter().map(|(l, w)| format!("{l:>w$}")).collect();
                out = format!("{rule}\n{}\n{rule}\n", labels.join("  "));
                self.columns = Some(columns);
            }
        }
        let line: Vec<String> = cells
            .iter()
            .map(|c| format!("{:>w$}", c.rendered(), w = c.width))
            .collect();
        out.push_str(&line.join("  "));
        out.push('\n');
        for cell in cells {
            let Some(key) = cell.key else { continue };
            let key = format!("{prefix}.{key}");
            match &cell.value {
                Value::Text(s) if matches!(cell.render, Render::Text) => report.set_meta(key, s),
                Value::Text(_) => {}
                Value::Int(v) => report.set_counter(key, *v),
                Value::Num(x) => report.set_scalar(key, *x),
                Value::Stat(s) => report.record_summary(key, s),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(mode: &str, sent: impl Into<Value>, bytes: f64, ratio: Summary) -> Vec<Cell> {
        vec![
            Cell::text("mode", 6, mode),
            Cell::int("sent", 5, sent).key("sent"),
            Cell::eng("bytes", 8, bytes).key("bytes"),
            Cell::fixed("ratio", 7, 2, ratio).key("ratio"),
            Cell::fixed("share", 8, 1, 0.25),
        ]
    }

    fn summary(xs: &[f64]) -> Summary {
        let mut s = Summary::new();
        for &x in xs {
            s.record(x);
        }
        s
    }

    #[test]
    fn fmt_covers_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(12345.0), "1.23e4");
        assert_eq!(fmt(42.0), "42.0");
        assert_eq!(fmt(1.5), "1.5000");
        assert_eq!(fmt(0.0001), "1.00e-4");
    }

    #[test]
    fn rows_line_up_under_the_header_their_first_row_prints() {
        let mut t = Table::default();
        let mut r = Report::new("t");
        let rule = "-".repeat(8 + 7 + 10 + 9 + 10);
        // No line ends in whitespace: the header is spaced like the rows.
        assert_eq!(
            t.row(
                &mut r,
                "a",
                &cells("tree", 7u64, 12345.0, summary(&[2.0, 4.0]))
            ),
            format!(
                "{rule}\n  mode   sent     bytes    ratio     share\n{rule}\n  \
                 tree      7    1.23e4     3.00       0.2\n"
            )
        );
        // Later rows print alone; text stands in for a missing number.
        assert_eq!(
            t.row(&mut r, "b", &cells("-", "n/a", 0.5, summary(&[1.0]))),
            "     -    n/a    0.5000     1.00       0.2\n"
        );
    }

    #[test]
    fn percent_cells_print_the_signed_share_of_a_fraction() {
        let mut r = Report::new("t");
        let row = [
            Cell::percent("vs full", 9, 0, 0.256).key("vs_full"),
            Cell::percent("vs", 7, 1, -0.031),
        ];
        let text = Table::default().row(&mut r, "eps0", &row);
        assert!(text.ends_with("     +26%    -3.1%\n"), "{text}");
        assert_eq!(r.scalars.get("eps0.vs_full"), Some(&0.256));
    }

    #[test]
    fn keyed_cells_land_in_the_section_of_their_type() {
        let mut r = Report::new("t");
        let mut row = cells("x", 7u64, 0.5, summary(&[1.0, 2.0, 6.0]));
        row.push(Cell::text("model", 5, "tree").key("model"));
        Table::default().row(&mut r, "star.s8", &row);
        assert_eq!(r.counters.get("star.s8.sent"), Some(&7));
        assert_eq!(r.scalars.get("star.s8.bytes"), Some(&0.5));
        let ratio = r.stats.get("star.s8.ratio").map(|s| (s.n, s.mean));
        assert_eq!(ratio, Some((3, 3.0)));
        let model = r.meta.get("star.s8.model").map(String::as_str);
        assert_eq!(model, Some("tree"));
        // The unkeyed label and share cells record nothing.
        let sizes = (
            r.counters.len(),
            r.scalars.len(),
            r.stats.len(),
            r.meta.len(),
        );
        assert_eq!(sizes, (1, 1, 1, 1));
    }

    #[test]
    fn text_in_a_numeric_column_is_a_blank_and_is_not_recorded() {
        let mut r = Report::new("t");
        Table::default().row(&mut r, "p", &cells("x", "-", 1.0, summary(&[1.0])));
        assert!(r.meta.is_empty() && r.counters.is_empty());
    }

    #[test]
    #[should_panic(expected = "a row must repeat its table's columns")]
    fn a_row_of_the_wrong_arity_panics() {
        let mut t = Table::default();
        let mut r = Report::new("t");
        t.row(&mut r, "a", &cells("x", 1u64, 1.0, summary(&[1.0])));
        t.row(&mut r, "b", &[Cell::text("mode", 6, "x")]);
    }

    #[test]
    #[should_panic(expected = "takes no float")]
    fn a_float_in_an_integer_column_panics() {
        Table::default().row(&mut Report::new("t"), "a", &[Cell::int("sent", 5, 1.5)]);
    }
}
