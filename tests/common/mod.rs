//! Test support shared by the record→replay suites; each test crate uses
//! part of it.
#![allow(dead_code)]
pub mod oracle;
pub mod program;
