//! The JSON value parser, re-exported from [`cim_trace::json`] so
//! existing `cim_metrics::jsonval` imports keep working.

pub use cim_trace::json::JsonValue;
