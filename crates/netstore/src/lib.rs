//! Pure-`std` HTTP transport for remote HP-MDR stores.
//!
//! This crate is the network tier's *transport* layer, deliberately
//! below the store abstraction: it knows how to move byte ranges over
//! HTTP/1.1 ([`HttpClient`]) and how to stand up a store directory as
//! an HTTP endpoint for tests and benches ([`LoopbackShardServer`]),
//! but nothing about manifests, chunks, or units. The `RemoteStore`
//! that maps `Store::load_units` onto range requests lives in
//! `hpmdr-core`, which depends on this crate.
//!
//! Everything here builds offline from `std` alone — no TLS, no HTTP
//! framework, no async runtime. The subset of HTTP/1.1 implemented is
//! exactly what shard fetching needs: `GET` with `Range: bytes=a-b`,
//! `Content-Length`-framed responses, and keep-alive connections. The
//! accept loop ([`Acceptor`]) is shared with the progressive retrieval
//! server, which speaks the length-prefixed [`wire`] protocol over it.

pub mod acceptor;
pub mod client;
pub mod server;
pub mod wire;

pub use acceptor::{Acceptor, ShutdownLatch};
pub use client::{ClientConfig, HttpClient, HttpError, Response, RetryPolicy, Url};
pub use server::{FaultPlan, LoopbackShardServer};
pub use wire::{Frame, FrameLimits, WireError, FRAME_MAGIC};
