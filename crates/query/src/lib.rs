//! # nf2-query — the NF² data-manipulation language
//!
//! The paper defers its DML ("We didn't address the data manipulation
//! language which we will show elsewhere", §5). This crate implements a
//! small but complete one over the storage engine:
//!
//! ```text
//! CREATE TABLE sc (Student, Course, Club) NEST ORDER (Student, Course, Club);
//! INSERT INTO sc VALUES ('s1','c1','b1'), ('s2','c1','b2');
//! SELECT Course FROM sc WHERE Student = 's1';
//! SELECT Student FROM sc JOIN cp WHERE Prof = 'p1';
//! UPDATE sc SET Club = 'b3' WHERE Student = 's1';
//! DELETE FROM sc WHERE Student = 's1' AND Course = 'c1';
//! EXPLAIN SELECT Student FROM sc JOIN cp;
//! NEST sc ON Course;      -- ad-hoc ν_Course
//! UNNEST sc ON Course;
//! SHOW sc;  SHOW FLAT sc;  TABLES;
//! ```
//!
//! Pipeline: [`token`] → [`parser`] → [`ast`] → [`engine`] (whose
//! sessions plan SELECTs into `nf2-algebra` expressions — compiled by
//! [`prepare`] into the one pull pipeline that runs them — and route
//! mutations through §4's incremental canonical maintenance). [`exec`]
//! holds the shared [`Output`] and [`QueryError`] types.

#![forbid(unsafe_code)]

pub mod ast;
pub mod cursor;
pub mod engine;
pub mod exec;
pub mod parser;
pub mod prepare;
pub mod token;
pub(crate) mod verify;

pub use ast::{EqPredicate, Projection, Statement, Value};
pub use cursor::{Cursor, FlatRows};
pub use engine::{Engine, EngineBuilder, Session};
pub use exec::{Output, QueryError};
pub use parser::{parse, parse_script, ParseError};
pub use prepare::{Param, Prepared, NO_PARAMS};
pub use token::{lex, shape, LexError, Shape, Token};
