//! # atk-core — the Andrew Toolkit architecture
//!
//! This crate is the paper's primary contribution: the object model and
//! protocols that let arbitrary components embed arbitrary components,
//! editable in place, with no compile-time knowledge of each other.
//!
//! The map from paper section to module:
//!
//! | Paper | Module | What it implements |
//! |---|---|---|
//! | §2 data objects & views | [`data`], [`view`], [`world`] | the model/view split, observers, change records, delayed update |
//! | §3 the view tree | [`im`], [`world`], [`baseline`] | event routing with parental authority; damage posted up, update passed down; the global-physical baseline it replaced |
//! | §3 negotiation | [`menus`], [`keymap`] | menu merging and key-sequence binding along the focus path |
//! | §4 printing | [`print`] | repaint any view subtree onto a PostScript drawable |
//! | §5 external representation | [`datastream`] | `\begindata`/`\enddata` nesting, `\view` placement, 7-bit/80-col transport rules, skip scanning, unknown-object passthrough |
//! | §6–7 class system & extension | [`catalog`], [`app`] (over [`atk_class`]) | name→factory resolution gated by the simulated dynamic loader; `runapp` |
//!
//! Components (text, table, drawing, …) live in their own crates and plug
//! in through [`catalog::Catalog`]; applications plug in through
//! [`app::AppRegistry`]. Nothing in this crate knows any concrete
//! component — that is the point.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod arena;
pub mod baseline;
pub mod catalog;
pub mod data;
pub mod datastream;
pub mod ids;
pub mod im;
pub mod keymap;
pub mod menus;
pub mod print;
pub mod script;
pub mod view;
pub mod world;

pub use app::{AppOutcome, AppRegistry, Application};
pub use catalog::{Catalog, CatalogError};
pub use data::{ChangeRec, DataObject, ObserverRef, UnknownObject};
pub use datastream::{
    audit_stream, document_to_string, read_document, write_document, DatastreamReader,
    DatastreamWriter, DsError, Token,
};
pub use ids::{DataId, ViewId};
pub use im::InteractionManager;
pub use keymap::{standard_editing_keymap, KeyOutcome, KeyState, Keymap};
pub use menus::{merge_menus, MenuItem};
pub use print::print_view;
pub use script::{format_key, parse_key, EventScript, ScriptStep, StepDriver};
pub use view::{ScrollInfo, Update, View, ViewBase};
pub use world::World;
