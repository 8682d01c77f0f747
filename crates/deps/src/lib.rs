//! # nf2-deps — dependency-theory substrate for NF² relations
//!
//! §3.4 of the paper chooses "best" canonical forms using functional and
//! multivalued dependencies, assuming 3NF schemas "mechanically obtained"
//! via Bernstein's synthesis. This crate supplies all of that machinery:
//!
//! * [`attrset`] — compact attribute sets;
//! * [`armstrong`] — checkable Armstrong-derivation proof trees for FD
//!   implication;
//! * [`fd`] — FDs: closure, implication, candidate keys, minimal cover,
//!   instance satisfaction;
//! * [`mvd`] — MVDs (Fagin): satisfaction, complementation, 4NF;
//! * [`basis`] — the dependency basis (Beeri) and fast MVD implication;
//! * [`chase`] — the chase: complete implication for the mixed FD+MVD
//!   theory and the lossless-join tableau test;
//! * [`decompose`] — classical 4NF decomposition (the thing §2 says NFRs
//!   "may throw away" — implemented so experiment E12 can measure the
//!   trade);
//! * [`synthesis`] — Bernstein 3NF synthesis (reference \[13\]);
//! * [`mine`] — FD/MVD discovery on instances (§2: dependencies are a
//!   property of the data, not an assumption);
//! * [`theorems`] — executable Theorems 3–5 and the §3.4 nest-order
//!   suggestion.

#![forbid(unsafe_code)]

pub mod armstrong;
pub mod attrset;
pub mod basis;
pub mod chase;
pub mod decompose;
pub mod fd;
pub mod mine;
pub mod mvd;
pub mod synthesis;
pub mod theorems;

pub use armstrong::{derive, Derivation};
pub use attrset::AttrSet;
pub use basis::{dependency_basis, implies_mvd_basis};
pub use chase::{chase_implies_fd, chase_implies_mvd, is_lossless_join};
pub use decompose::{decompose_4nf, is_4nf_fragment, Decomposition, SplitStep};
pub use fd::{candidate_keys, closure, holds_fd, implies, is_superkey, minimal_cover, Fd};
pub use mine::{mine_fds, mine_mvds};
pub use mvd::{holds_mvd, is_4nf, Mvd};
pub use synthesis::{synthesize_3nf, Fragment, Synthesis};
pub use theorems::{
    check_theorem3, check_theorem4, check_theorem5, sample_irreducible_forms, suggest_nest_order,
    Theorem3Report, Theorem4Report,
};
