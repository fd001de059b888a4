//! Shared test support: the batch reference matcher.

pub mod oracle;
