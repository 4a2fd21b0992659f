//! # cim-logic — MAGIC NOR logic synthesis on resistive crossbars
//!
//! Builds computational blocks out of MAGIC NOR/NOT micro-ops on a
//! [`cim_crossbar::Crossbar`]:
//!
//! * [`gates`] — SIMD row-level gate emulation (NOT/OR/AND/XOR/XNOR and
//!   a full adder), demonstrating NOR's functional completeness
//!   (paper Sec. II-B) with exact cycle costs;
//! * [`kogge_stone`] — the paper's Kogge-Stone carry-lookahead adder
//!   and subtractor (Sec. IV-B): `8 + 11·⌈log2 n⌉ + 9` clock cycles,
//!   `n+1` columns, exactly 12 scratch rows, with optional
//!   wear-leveling;
//! * [`ripple`] — a NOR-based ripple-carry adder, the ablation baseline
//!   that shows why the paper picks Kogge-Stone (O(n) vs O(log n));
//! * [`multpim`] — the single-row serial multiplier adopted from
//!   MultPIM \[9\] for the paper's multiplication stage (Sec. IV-D),
//!   with the paper's area optimization (12·w cells per row).
//!
//! ## Example: adding two 64-bit integers fully in-memory
//!
//! ```
//! use cim_bigint::Uint;
//! use cim_logic::kogge_stone::KoggeStoneAdder;
//!
//! # fn main() -> Result<(), cim_crossbar::CrossbarError> {
//! let adder = KoggeStoneAdder::new(64);
//! let a = Uint::from_u64(u64::MAX);
//! let b = Uint::from_u64(1);
//! let (sum, stats) = adder.add(&a, &b)?;
//! assert_eq!(sum, Uint::pow2(64));
//! assert_eq!(stats.cycles, adder.latency()); // 8 + 11·6 + 9 = 83 cc
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod condsub;
pub mod gates;
pub mod kogge_stone;
pub mod multpim;
pub mod ripple;
pub mod tmr;
