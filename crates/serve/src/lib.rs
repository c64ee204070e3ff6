//! # mm-serve — the long-running batch service
//!
//! `mmflow batch` is one process per batch; the ROADMAP's north star is
//! a service that keeps the engine hot. This crate runs the batch engine
//! behind a Unix/TCP socket:
//!
//! * **One shared [`mm_engine::Engine`]** — a single stage cache and
//!   in-memory result memo serve every connection, so clients warm each
//!   other's caches.
//! * **One fair queue** — jobs from all connections meet in a central
//!   [`Scheduler`] whose workers all take from one bounded queue:
//!   strict priorities order it and round-robin interleaves clients
//!   fairly within each priority.
//! * **One thread per connection** — each admitted connection (at most
//!   `max_connections`) reads, resolves and streams on its own thread,
//!   so a slow or panicking request costs only its own client;
//!   execution capacity is the worker count, not the connection count.
//! * **Backpressure is structured, never silent** — over-capacity
//!   connections and over-quota batches get `busy` frames; admitted
//!   batches that wait get a `queued` frame.
//! * **The JSONL contract is the wire format** — per-job result records
//!   stream back byte-identical to `mmflow batch` output, framed by
//!   typed `accepted`/`queued`/`summary`/`busy`/`error` lines
//!   ([`mm_engine::protocol`]).
//! * **Failure isolation** — one infeasible job yields one structured
//!   error record; a malformed request yields one error frame; neither
//!   takes down the batch, the connection, or the server. A client that
//!   disconnects mid-batch has its queued jobs purged.
//! * **Graceful drain** — a `shutdown` frame (or [`ServerHandle`]) stops
//!   the accept loop and lets every in-flight batch finish before
//!   [`Server::run`] returns.
//!
//! # Example
//!
//! ```no_run
//! use mm_serve::{Listen, ServeOptions, Server};
//!
//! # fn main() -> std::io::Result<()> {
//! let listen = Listen::parse("unix:/tmp/mmflow.sock").unwrap();
//! let server = Server::bind(&listen, &ServeOptions::default())?;
//! eprintln!("listening on {}", server.listen_addr());
//! let report = server.run()?; // until a shutdown frame arrives
//! eprintln!("served {} batches", report.batches);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod scheduler;
mod server;

pub use client::{BatchOutcome, Client, Rejection, DEFAULT_CONNECT_TIMEOUT};
pub use scheduler::{Admitted, ClientId, QueueStats, Rejected, Scheduler};
pub use server::{Listen, ServeOptions, ServeReport, Server, ServerHandle, SocketStream};
