//! Lexer for the NF² data-manipulation language: one scanner
//! (`spans`) that both [`lex`] and [`shape`] read, so the parser and
//! a plan cache's key cannot disagree on where a literal is.

use std::borrow::Cow;
use std::fmt;
use std::ops::Range;

/// A lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// Bare identifier (table or attribute name), lowercased keywords are
    /// resolved by the parser.
    Ident(String),
    /// Single-quoted string literal.
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `;`
    Semicolon,
    /// `=`
    Equals,
    /// `*`
    Star,
    /// `?` — a positional parameter placeholder (prepared statements).
    Question,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Comma => write!(f, ","),
            Token::Semicolon => write!(f, ";"),
            Token::Equals => write!(f, "="),
            Token::Star => write!(f, "*"),
            Token::Question => write!(f, "?"),
        }
    }
}

/// A lexing error with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Byte offset of the offending character.
    pub pos: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for LexError {}

/// What a span of text lexes as: an identifier, a string literal
/// (quotes included) or a one-character token, which holds no text.
#[derive(Debug)]
enum Span {
    Ident,
    Str,
    Punct(Token),
}

/// The one scanner: the kind and byte range of each token of `input`
/// (as [`lex`] states them), in order, skipping whitespace and `--`
/// comments (a quote inside a comment starts no literal). Only an
/// error allocates; it ends the scan.
fn spans(input: &str) -> impl Iterator<Item = Result<(Span, Range<usize>), LexError>> + '_ {
    let bytes = input.as_bytes();
    let mut i = 0;
    let fail = |pos, message| Some(Err(LexError { pos, message }));
    std::iter::from_fn(move || loop {
        let start = i;
        let c = *bytes.get(i)?;
        i += 1;
        let span = match c {
            b' ' | b'\t' | b'\r' | b'\n' => continue,
            b'-' if bytes.get(i) == Some(&b'-') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                continue;
            }
            b'(' => Span::Punct(Token::LParen),
            b')' => Span::Punct(Token::RParen),
            b',' => Span::Punct(Token::Comma),
            b';' => Span::Punct(Token::Semicolon),
            b'=' => Span::Punct(Token::Equals),
            b'*' => Span::Punct(Token::Star),
            b'?' => Span::Punct(Token::Question),
            b'\'' => loop {
                match bytes.get(i) {
                    None => return fail(start, "unterminated string literal".into()),
                    Some(b'\'') if bytes.get(i + 1) == Some(&b'\'') => i += 2,
                    Some(b'\'') => {
                        i += 1;
                        break Span::Str;
                    }
                    Some(_) => i += 1,
                }
            },
            c if c.is_ascii_alphanumeric() || c == b'_' => {
                let ident = |b: &u8| b.is_ascii_alphanumeric() || *b == b'_' || *b == b'-';
                while bytes.get(i).is_some_and(ident) {
                    i += 1;
                }
                Span::Ident
            }
            _ => {
                // Tokens start on character boundaries: every byte
                // stepped over outside a literal is ASCII.
                let other = input[start..].chars().next().expect("a byte is left");
                i = bytes.len();
                return fail(start, format!("unexpected character {other:?}"));
            }
        };
        return Some(Ok((span, start..i)));
    })
}

/// A string literal's value: its text between the quotes, borrowed
/// unless a `''` escape must become `'`.
fn unquote(quoted: &str) -> Cow<'_, str> {
    let inner = &quoted[1..quoted.len() - 1];
    match inner.contains("''") {
        true => Cow::Owned(inner.replace("''", "'")),
        false => Cow::Borrowed(inner),
    }
}

/// Tokenizes `input`. Identifiers may contain letters, digits, `_` and
/// `-`; string literals use single quotes with `''` as the escape.
pub fn lex(input: &str) -> Result<Vec<Token>, LexError> {
    spans(input)
        .map(|span| {
            let (span, range) = span?;
            Ok(match span {
                Span::Ident => Token::Ident(input[range].to_owned()),
                Span::Str => Token::Str(unquote(&input[range]).into_owned()),
                Span::Punct(token) => token,
            })
        })
        .collect()
}

/// A SELECT's text with its string literals lifted out ([`shape`]).
#[derive(Debug, PartialEq, Eq)]
pub struct Shape<'a> {
    /// The text with each string literal replaced by `?`, comments and
    /// whitespace as they were. The parser accepts a literal exactly
    /// where it accepts `?`, so parsing the key gives the text's
    /// statement with its literals lifted to parameters
    /// ([`Statement::lift_literals`](crate::ast::Statement::lift_literals)).
    pub key: String,
    /// The literals' values, in textual order: borrowed from the text
    /// unless a `''` escape forced a copy.
    pub literals: Vec<Cow<'a, str>>,
}

/// The shape of `text`, if it is one a plan cache can key by: `None`
/// when its first word (after any `;`) is not `SELECT`, when it holds
/// a `?` outside a literal (it has parameters to bind), or when it
/// does not lex. Two texts that differ only in their literals have one
/// shape.
pub fn shape(text: &str) -> Option<Shape<'_>> {
    let semicolon = |s: &Result<_, _>| matches!(s, Ok((Span::Punct(Token::Semicolon), _)));
    let mut spans = spans(text).skip_while(semicolon);
    match spans.next()? {
        Ok((Span::Ident, first)) if text[first.clone()].eq_ignore_ascii_case("select") => {}
        _ => return None,
    }
    let (mut key, mut literals, mut copied) = (String::with_capacity(text.len()), Vec::new(), 0);
    for span in spans {
        match span.ok()? {
            (Span::Punct(Token::Question), _) => return None,
            (Span::Str, range) => {
                key.push_str(&text[copied..range.start]);
                key.push('?');
                copied = range.end;
                literals.push(unquote(&text[range]));
            }
            _ => {}
        }
    }
    key.push_str(&text[copied..]);
    Some(Shape { key, literals })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_create_statement() {
        let toks = lex("CREATE TABLE sc (a, b);").unwrap();
        assert_eq!(toks[0], Token::Ident("CREATE".into()));
        assert_eq!(toks[2], Token::Ident("sc".into()));
        assert!(toks.contains(&Token::LParen));
        assert_eq!(*toks.last().unwrap(), Token::Semicolon);
    }

    #[test]
    fn lexes_strings_with_escapes() {
        let toks = lex("'it''s'").unwrap();
        assert_eq!(toks, vec![Token::Str("it's".into())]);
    }

    #[test]
    fn rejects_unterminated_string() {
        let err = lex("'oops").unwrap_err();
        assert!(err.to_string().contains("unterminated"));
    }

    #[test]
    fn rejects_strange_characters() {
        assert!(lex("SELECT ~ FROM x").is_err());
    }

    #[test]
    fn skips_comments_and_whitespace() {
        let toks = lex("a -- a comment\n b").unwrap();
        assert_eq!(
            toks,
            vec![Token::Ident("a".into()), Token::Ident("b".into())]
        );
    }

    #[test]
    fn lexes_equals_and_star() {
        let toks = lex("SELECT * WHERE a = 'x'").unwrap();
        assert!(toks.contains(&Token::Star));
        assert!(toks.contains(&Token::Equals));
    }

    #[test]
    fn lexes_parameter_placeholders() {
        let toks = lex("WHERE a = ? AND b IN (?, 'x')").unwrap();
        assert_eq!(toks.iter().filter(|t| **t == Token::Question).count(), 2);
        assert_eq!(Token::Question.to_string(), "?");
    }

    #[test]
    fn lexes_non_ascii_string_literals_as_written() {
        assert_eq!(lex("'é'").unwrap(), vec![Token::Str("é".into())]);
        assert_eq!(lex("'ü''ß'").unwrap(), vec![Token::Str("ü'ß".into())]);
        let err = lex("a é").unwrap_err();
        assert_eq!(
            err.to_string(),
            "lex error at byte 2: unexpected character 'é'"
        );
    }

    #[test]
    fn a_shape_lifts_each_literal_to_a_question_mark() {
        let s = shape("select A FROM t -- it's\n WHERE A = 'it''s' AND B IN ('é', '?')").unwrap();
        assert_eq!(
            s.key,
            "select A FROM t -- it's\n WHERE A = ? AND B IN (?, ?)"
        );
        assert_eq!(s.literals, ["it's", "é", "?"]);
        assert!(matches!(s.literals[1], Cow::Borrowed(_)));
        assert!(matches!(s.literals[0], Cow::Owned(_)));
        assert_eq!(shape("; SELECT * FROM t").unwrap().key, "; SELECT * FROM t");
    }

    #[test]
    fn only_a_lexing_select_without_parameters_has_a_shape() {
        for text in [
            "",
            "-- only a comment",
            "EXPLAIN SELECT * FROM t WHERE A = 'a'",
            "DELETE FROM t WHERE A = 'a'",
            "'SELECT'",
            "SELECT * FROM t WHERE A = ?",
            "SELECT * FROM t WHERE A = 'a",
            "SELECT * FROM t WHERE A ~ 'a'",
        ] {
            assert_eq!(shape(text), None, "{text}");
        }
    }

    #[test]
    fn identifiers_may_contain_dashes_and_digits() {
        let toks = lex("course-101").unwrap();
        assert_eq!(toks, vec![Token::Ident("course-101".into())]);
    }
}
