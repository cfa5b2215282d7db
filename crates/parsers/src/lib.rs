//! # mcl-parsers — benchmark I/O
//!
//! - [`bookshelf`]: UCLA Bookshelf (`.nodes/.pl/.scl/.nets`) with `.fence`
//!   and `.rails` extensions, reader and writer.
//! - [`lefdef`]: a minimal LEF/DEF subset (macros + pins + edge classes,
//!   die/rows/regions/groups/components/pins/nets), reader and DEF/LEF
//!   writers.
//!
//! Both read into the shared [`mcl_db::Design`] model.

#![forbid(unsafe_code)]

pub mod bookshelf;
pub mod error;
pub mod fsio;
pub mod lefdef;

pub use bookshelf::{read as read_bookshelf, write as write_bookshelf, write_pl, Bundle};
pub use error::{ParseError, Result};
pub use fsio::{read_bookshelf_dir, read_lefdef_files, write_bookshelf_dir};
pub use lefdef::{read_def, read_lef, write_def, write_lef, LefLibrary};
