//! Recursive-descent parser for the SELECT/WHERE/COST/EPOCH grammar.
//!
//! ```text
//! query  := SELECT items FROM ident [WHERE preds] [COST costs]
//!           [EPOCH DURATION num [unit]]
//! items  := item {',' item}
//! item   := ident '(' [ident] ')'   // aggregate or arbitrary function
//!         | ident                   // plain attribute
//! preds  := pred {AND pred | ',' pred}
//! pred   := 'region' '(' ident ')'
//!         | ident op num            // op ∈ =, <, <=, >, >=
//! costs  := cost {',' cost}
//! cost   := ('energy'|'time'|'accuracy') [op] num
//! unit   := 's' | 'ms' | 'min'
//! ```

use crate::ast::{CmpOp, CostBound, Pred, Query, SelectItem};
use crate::lexer::{lex, LexError, Token};
use pg_sensornet::aggregate::AggFn;
use pg_sim::Duration;
use std::fmt;

/// A parse failure with a human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// What went wrong, and roughly where.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query parse error: {}", self.msg)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            msg: format!("{} at byte {}", e.msg, e.pos),
        }
    }
}

struct P {
    toks: Vec<Token>,
    i: usize,
}

impl P {
    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.i)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.toks.get(self.i).cloned();
        if t.is_some() {
            self.i += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            msg: format!("{} (at token {})", msg.into(), self.i),
        }
    }

    /// Consume an identifier equal (case-insensitively) to `kw`.
    fn keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw) => Ok(()),
            other => Err(self.err(format!("expected '{kw}', found {other:?}"))),
        }
    }

    /// Is the current token the given keyword?
    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn number(&mut self) -> Result<f64, ParseError> {
        match self.next() {
            Some(Token::Num(x)) => Ok(x),
            other => Err(self.err(format!("expected number, found {other:?}"))),
        }
    }

    fn select_item(&mut self) -> Result<SelectItem, ParseError> {
        let name = self.ident()?;
        if self.peek() == Some(&Token::LParen) {
            self.next();
            let arg = match self.peek() {
                Some(Token::Ident(_)) => Some(self.ident()?),
                _ => None,
            };
            match self.next() {
                Some(Token::RParen) => {}
                other => return Err(self.err(format!("expected ')', found {other:?}"))),
            }
            if let Some(agg) = AggFn::parse(&name) {
                let attr = arg.ok_or_else(|| self.err(format!("{name}() needs an attribute")))?;
                return Ok(SelectItem::Agg(agg, attr));
            }
            return Ok(SelectItem::Func(name, arg));
        }
        Ok(SelectItem::Attr(name))
    }

    fn pred(&mut self) -> Result<Pred, ParseError> {
        let name = self.ident()?;
        if name.eq_ignore_ascii_case("region") {
            match self.next() {
                Some(Token::LParen) => {}
                other => return Err(self.err(format!("expected '(', found {other:?}"))),
            }
            let region = self.ident()?;
            match self.next() {
                Some(Token::RParen) => {}
                other => return Err(self.err(format!("expected ')', found {other:?}"))),
            }
            return Ok(Pred::Region(region));
        }
        let op = match self.next() {
            Some(Token::Eq) => CmpOp::Eq,
            Some(Token::Lt) => CmpOp::Lt,
            Some(Token::Le) => CmpOp::Le,
            Some(Token::Gt) => CmpOp::Gt,
            Some(Token::Ge) => CmpOp::Ge,
            other => return Err(self.err(format!("expected comparison, found {other:?}"))),
        };
        let value = self.number()?;
        if name.eq_ignore_ascii_case("sensor_id") && op == CmpOp::Eq {
            if value < 0.0 || value.fract() != 0.0 {
                return Err(self.err(format!(
                    "sensor id must be a non-negative integer, got {value}"
                )));
            }
            // `as` saturates: an id past u32 would name sensor u32::MAX.
            if value > f64::from(u32::MAX) {
                return Err(self.err(format!("sensor id out of range, got {value:?}")));
            }
            return Ok(Pred::SensorId(value as u32));
        }
        Ok(Pred::Cmp(name, op, value))
    }

    fn cost(&mut self) -> Result<CostBound, ParseError> {
        let kind = self.ident()?;
        // Optional comparison operator (COST energy <= 0.5 or COST energy 0.5).
        if matches!(self.peek(), Some(Token::Le | Token::Lt | Token::Eq)) {
            self.next();
        }
        let value = self.number()?;
        if value < 0.0 {
            return Err(self.err(format!("cost bound must be non-negative, got {value}")));
        }
        // An overflowing literal lexes as infinity, which bounds nothing.
        if !value.is_finite() {
            return Err(self.err(format!("cost bound out of range, got {value}")));
        }
        match kind.to_ascii_lowercase().as_str() {
            "energy" => Ok(CostBound::EnergyJ(value)),
            "time" => Ok(CostBound::TimeS(value)),
            "accuracy" => Ok(CostBound::AccuracyRel(value)),
            other => Err(self.err(format!(
                "unknown cost dimension '{other}' (energy|time|accuracy)"
            ))),
        }
    }
}

/// Parse query text into an AST.
pub fn parse(input: &str) -> Result<Query, ParseError> {
    let mut p = P {
        toks: lex(input)?,
        i: 0,
    };
    p.keyword("select")?;
    let mut select = vec![p.select_item()?];
    while p.peek() == Some(&Token::Comma) {
        p.next();
        select.push(p.select_item()?);
    }
    p.keyword("from")?;
    let source = p.ident()?;

    let mut wher = Vec::new();
    if p.at_keyword("where") {
        p.next();
        wher.push(p.pred()?);
        // Predicates are conjoined by either AND or a comma.
        while p.at_keyword("and") || p.peek() == Some(&Token::Comma) {
            p.next();
            wher.push(p.pred()?);
        }
    }

    let mut cost = Vec::new();
    if p.at_keyword("cost") {
        p.next();
        cost.push(p.cost()?);
        while p.peek() == Some(&Token::Comma) {
            p.next();
            cost.push(p.cost()?);
        }
    }

    let mut epoch = None;
    if p.at_keyword("epoch") {
        p.next();
        p.keyword("duration")?;
        let value = p.number()?;
        if value <= 0.0 {
            return Err(p.err(format!("epoch duration must be positive, got {value}")));
        }
        let unit = if matches!(p.peek(), Some(Token::Ident(_))) {
            p.ident()?
        } else {
            "s".to_string()
        };
        let secs = match unit.to_ascii_lowercase().as_str() {
            "s" | "sec" | "seconds" => value,
            "ms" => value / 1_000.0,
            "min" | "minutes" => value * 60.0,
            other => return Err(p.err(format!("unknown epoch unit '{other}'"))),
        };
        // An overflowing literal lexes as infinity; `Duration` holds u64
        // nanoseconds (≈584 years).
        if !secs.is_finite() || secs > Duration::from_nanos(u64::MAX).as_secs_f64() {
            return Err(p.err(format!("epoch duration out of range, got {value} {unit}")));
        }
        epoch = Some(Duration::from_secs_f64(secs));
    }

    if let Some(t) = p.peek() {
        return Err(p.err(format!("trailing input starting at '{t}'")));
    }
    Ok(Query {
        select,
        source,
        wher,
        cost,
        epoch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's example: "Return temperature at Sensor # 10".
    #[test]
    fn simple_query_parses() {
        let q = parse("SELECT temp FROM sensors WHERE sensor_id = #10").unwrap();
        assert_eq!(q.select, vec![SelectItem::Attr("temp".into())]);
        assert_eq!(q.source, "sensors");
        assert_eq!(q.target_sensor(), Some(10));
        assert!(q.cost.is_empty());
        assert_eq!(q.epoch, None);
    }

    /// The paper's example: "Return Average Temperature in room # 210".
    #[test]
    fn aggregate_query_parses() {
        let q = parse("SELECT AVG(temp) FROM sensors WHERE region(room210)").unwrap();
        assert_eq!(q.first_agg(), Some(AggFn::Avg));
        assert_eq!(q.region(), Some("room210"));
    }

    /// The paper's example: "Find Temperature Distribution in room #210".
    #[test]
    fn complex_query_parses() {
        let q =
            parse("SELECT temperature_distribution() FROM sensors WHERE region(room210)").unwrap();
        assert!(q.has_complex_fn());
        assert!(!q.has_aggregate());
        assert_eq!(
            q.select[0],
            SelectItem::Func("temperature_distribution".into(), None)
        );
    }

    /// The paper's example: "Return temperature at Sensor #10 every 10 s".
    #[test]
    fn continuous_query_parses() {
        let q = parse("SELECT temp FROM sensors WHERE sensor_id = 10 EPOCH DURATION 10 s").unwrap();
        assert_eq!(q.epoch, Some(Duration::from_secs(10)));
    }

    #[test]
    fn full_clause_stack_with_braces() {
        let q = parse(
            "SELECT {MAX(temp), temp} from sensors \
             WHERE {region(floor2) AND temp > 40} \
             COST {energy <= 0.5, time <= 2, accuracy 0.05} \
             EPOCH DURATION 500 ms",
        )
        .unwrap();
        assert_eq!(q.select.len(), 2);
        assert_eq!(q.wher.len(), 2);
        assert_eq!(q.energy_bound(), Some(0.5));
        assert_eq!(q.time_bound(), Some(2.0));
        assert_eq!(q.accuracy_bound(), Some(0.05));
        assert_eq!(q.epoch, Some(Duration::from_millis(500)));
    }

    #[test]
    fn epoch_units() {
        let q = parse("SELECT temp FROM sensors EPOCH DURATION 2 min").unwrap();
        assert_eq!(q.epoch, Some(Duration::from_secs(120)));
        let q = parse("SELECT temp FROM sensors EPOCH DURATION 3").unwrap();
        assert_eq!(q.epoch, Some(Duration::from_secs(3)));
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert!(parse("select temp from sensors where sensor_id = 1").is_ok());
        assert!(parse("SeLeCt temp FrOm sensors").is_ok());
    }

    #[test]
    fn error_cases_are_reported() {
        assert!(parse("").is_err());
        assert!(parse("SELECT FROM sensors").is_err());
        assert!(parse("SELECT temp").is_err());
        assert!(parse("SELECT temp FROM sensors WHERE").is_err());
        assert!(parse("SELECT temp FROM sensors COST banana 3").is_err());
        assert!(parse("SELECT temp FROM sensors EPOCH DURATION -5").is_err());
        assert!(parse("SELECT temp FROM sensors EPOCH DURATION 5 fortnights").is_err());
        assert!(parse("SELECT temp FROM sensors EPOCH DURATION 1e400").is_err());
        assert!(parse("SELECT temp FROM sensors EPOCH DURATION 1e308 min").is_err());
        assert!(parse("SELECT temp FROM sensors EPOCH DURATION 2e10").is_err());
        assert!(parse("SELECT temp FROM sensors garbage").is_err());
        assert!(parse("SELECT AVG() FROM sensors").is_err());
        assert!(parse("SELECT temp FROM sensors WHERE sensor_id = 2.5").is_err());
        assert!(parse("SELECT temp FROM sensors COST energy -1").is_err());
        // Out-of-range literals name what they are, not a clamped value.
        for (clause, literal) in [
            ("WHERE sensor_id = 4294967296", "4294967296"),
            ("WHERE sensor_id = 1e300", "1e300"),
            ("COST time 1e400", "inf"),
            ("COST energy 1e400", "inf"),
        ] {
            let e = parse(&format!("SELECT temp FROM sensors {clause}")).unwrap_err();
            assert!(
                e.msg.contains("out of range") && e.msg.contains(literal),
                "{e}"
            );
        }
        let q = parse("SELECT temp FROM sensors WHERE sensor_id = 4294967295").unwrap();
        assert_eq!(q.target_sensor(), Some(u32::MAX));
    }

    #[test]
    fn arbitrary_function_with_argument() {
        let q = parse("SELECT fourier_spectrum(temp) FROM sensors").unwrap();
        assert_eq!(
            q.select[0],
            SelectItem::Func("fourier_spectrum".into(), Some("temp".into()))
        );
    }
}
