//! Property test: a SELECT's shape is its parse with the literals
//! lifted, and a plan cached under it answers as a prepared statement.
//!
//! `Session::run` and `Session::query` look a SELECT's plan up by its
//! shape ([`shape`]) before parsing anything. The cache is sound only
//! if parsing the shape's key gives the statement the text parses to
//! with its literals lifted to `?`, and if the scanned literals are the
//! lifted ones. Generated SELECTs vary keyword case and whitespace and
//! hold `''` escapes, literals outside ASCII, `IN` lists, `LIMIT` and
//! `--` comments with quotes in them. The scanner that finds the
//! literals also lexes: on ASCII text it must give the tokens the
//! byte-by-byte lexer it replaced gave, errors included.

use proptest::prelude::*;

use nf2_query::{lex, parse, shape, Engine, LexError, Output, Token};

/// Choices drawn from one seed (a 64-bit LCG's high bits): a case is
/// its seed.
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        ((self.0 >> 33) % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }

    /// `word` in upper, lower or capitalized case.
    fn keyword(&mut self, word: &str) -> String {
        match self.below(3) {
            0 => word.to_uppercase(),
            1 => word.to_lowercase(),
            _ => word[..1].to_uppercase() + &word[1..].to_lowercase(),
        }
    }

    /// Whitespace between two tokens, now and then a comment holding a
    /// quote.
    fn gap(&mut self) -> &'static str {
        self.pick(&[" ", " ", "  ", "\n\t", " -- it's\n", " --'\n "])
    }
}

/// The values rows hold and literals compare against.
const VALUES: [&str; 7] = ["a0", "it's", "é", "日本", "?", "", "-- x"];

/// `v` as a quoted SQL literal.
fn quoted(v: &str) -> String {
    format!("'{}'", v.replace('\'', "''"))
}

/// A SELECT over `t(A, B, C)`, joined to `u(C, D)` half the time.
fn select(d: &mut Draw) -> String {
    let join = d.below(2) == 0;
    let attrs: &[&str] = if join {
        &["A", "B", "C", "D"]
    } else {
        &["A", "B", "C"]
    };
    let mut sql = format!("{}{}{}", d.gap(), d.keyword("select"), d.gap());
    match d.below(4) {
        0 => sql.push('*'),
        1 => sql += &format!("{}(*)", d.keyword("count")),
        _ => sql += &format!("{},{}{}", d.pick(&attrs[..2]), d.gap(), d.pick(&attrs[2..])),
    }
    sql += &format!("{}{}{}t", d.gap(), d.keyword("from"), d.gap());
    if join {
        sql += &format!("{}{}{}u", d.gap(), d.keyword("join"), d.gap());
    }
    for i in 0..d.below(3) {
        let word = if i == 0 { "where" } else { "and" };
        sql += &format!("{}{}{}{}", d.gap(), d.keyword(word), d.gap(), d.pick(attrs));
        let value = quoted(d.pick(&VALUES));
        match d.below(2) {
            0 => sql += &format!("{}={}{value}", d.gap(), d.gap()),
            _ => {
                let other = quoted(d.pick(&VALUES));
                let (kw, gap) = (d.keyword("in"), d.gap());
                sql += &format!("{gap}{kw}{gap}({value},{}{other})", d.gap());
            }
        }
    }
    if d.below(3) == 0 {
        let (order, by) = (d.keyword("order"), d.keyword("by"));
        sql += &format!("{}{order} {by}{}A", d.gap(), d.gap());
    }
    if d.below(3) == 0 {
        sql += &format!("{}{} {}", d.gap(), d.keyword("limit"), d.below(4));
    }
    sql + d.pick(&["", ";", " ; "])
}

/// The byte-by-byte lexer the span scanner replaced: it reads a
/// literal's bytes as characters, so it agrees with the scanner on
/// ASCII text only.
fn reference_lex(input: &str) -> Result<Vec<Token>, LexError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let punct = match c {
            '(' => Some(Token::LParen),
            ')' => Some(Token::RParen),
            ',' => Some(Token::Comma),
            ';' => Some(Token::Semicolon),
            '=' => Some(Token::Equals),
            '*' => Some(Token::Star),
            '?' => Some(Token::Question),
            _ => None,
        };
        if let Some(t) = punct {
            tokens.push(t);
            i += 1;
            continue;
        }
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '\'' => {
                let mut s = String::new();
                let start = i;
                i += 1;
                loop {
                    if i >= bytes.len() {
                        return Err(LexError {
                            pos: start,
                            message: "unterminated string literal".into(),
                        });
                    }
                    if bytes[i] == b'\'' {
                        if bytes.get(i + 1) == Some(&b'\'') {
                            s.push('\'');
                            i += 2;
                            continue;
                        }
                        i += 1;
                        break;
                    }
                    s.push(bytes[i] as char);
                    i += 1;
                }
                tokens.push(Token::Str(s));
            }
            c if c.is_ascii_alphanumeric() || c == '_' => {
                let start = i;
                while i < bytes.len() {
                    let b = bytes[i] as char;
                    if b.is_ascii_alphanumeric() || b == '_' || b == '-' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                tokens.push(Token::Ident(input[start..i].to_owned()));
            }
            other => {
                return Err(LexError {
                    pos: i,
                    message: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    Ok(tokens)
}

/// An engine holding `t(A, B, C)` and `u(C, D)`, each row drawn from
/// [`VALUES`].
fn engine(d: &mut Draw) -> Engine {
    let engine = Engine::new();
    let mut script = String::from("CREATE TABLE t (A, B, C); CREATE TABLE u (C, D);");
    for (table, arity) in [("t", 3), ("u", 2)] {
        for _ in 0..1 + d.below(6) {
            let row: Vec<String> = (0..arity).map(|_| quoted(d.pick(&VALUES))).collect();
            script += &format!("INSERT INTO {table} VALUES ({});", row.join(", "));
        }
    }
    engine.session().run_script(&script).unwrap();
    engine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Parsing the key gives the lifted statement, and the scanned
    /// literals are the lifted ones.
    #[test]
    fn a_shape_parses_to_the_lifted_statement(seed in any::<u64>()) {
        let sql = select(&mut Draw(seed));
        let shape = shape(&sql).expect("a SELECT without `?` that lexes");
        let (lifted, literals) = parse(&sql).unwrap().lift_literals();
        prop_assert_eq!(parse(&shape.key).unwrap(), lifted, "{:?} -> {:?}", sql, shape.key);
        prop_assert_eq!(literals, shape.literals);
    }

    /// The scanner lexes ASCII text as the byte-by-byte lexer did,
    /// errors included.
    #[test]
    fn the_scanner_lexes_ascii_as_before(text in "[ -~\t\n]{0,40}", seed in any::<u64>()) {
        prop_assert_eq!(lex(&text), reference_lex(&text));
        let sql = select(&mut Draw(seed));
        if sql.is_ascii() {
            prop_assert_eq!(lex(&sql), reference_lex(&sql));
        }
    }

    /// The plan `run` caches under a shape, cold and warm, and `query`'s
    /// answer as a `Prepared` of the shape executed with its literals.
    #[test]
    fn a_cached_run_answers_as_the_prepared_shape(seed in any::<u64>()) {
        let d = &mut Draw(seed);
        let engine = engine(d);
        let mut session = engine.session();
        let sql = select(d);
        let shape = shape(&sql).unwrap();
        let prepared = session.prepare(&shape.key);
        let want = prepared.and_then(|mut p| p.execute(&mut session, &shape.literals));
        for _ in 0..2 {
            let got = session.run(&sql);
            match (&got, &want) {
                (Ok(got), Ok(want)) => {
                    prop_assert_eq!(got, want);
                    prop_assert_eq!(got.to_text(), want.to_text());
                }
                (got, want) => prop_assert_eq!(format!("{got:?}"), format!("{want:?}")),
            }
            let streamed = session.query(&sql).and_then(|c| c.into_relation());
            match (&streamed, &want) {
                (Ok(relation), Ok(Output::Relation { relation: want, .. })) => {
                    prop_assert_eq!(relation, want)
                }
                (Ok(_), Ok(Output::Count(_))) => {}
                (got, want) => prop_assert_eq!(format!("{got:?}"), format!("{want:?}")),
            }
        }
        if want.is_ok() {
            let hits = engine.obs().registry().counter("plan_cache.hits").get();
            prop_assert_eq!(hits, 3, "the warm run and both queries hit");
        }
    }
}
