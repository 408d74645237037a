//! Set-up: everything the workloads run against, generated from the seed
//! and nothing else. The program under test only ever sees these
//! generated inputs.

use hpmdr_core::chunked::extract_region;
use hpmdr_core::prelude::*;
use hpmdr_datasets::fields::{spectral_field, FieldSpec};
use hpmdr_datasets::{uniform_queries, RegionQuery};
use hpmdr_server::{ProgressiveServer, Registry, ServerConfig};
use std::path::{Path, PathBuf};

/// Chunk extent of the store `ingest` writes and `retrieve` reads.
pub const CHUNK_LARGE: usize = 64;
/// Chunk extent of the store `roi` and `serve` query: many small
/// hierarchies, so per-chunk fixed costs show.
pub const CHUNK_SMALL: usize = 32;
/// Region queries per list, corners uniform over the domain.
pub const QUERY_COUNT: usize = 200;
/// Share of the domain one region covers: the volume of one small chunk.
/// A region of a chunk's extent straddles two chunks per dimension
/// wherever its corner falls (bar exact alignment), so eight of them: the
/// median and the tail of the list cost the same on every seed. A
/// hot-spot list, or a region smaller than a chunk, makes the typical
/// query touch four chunks on one seed and eight on the next.
pub const QUERY_SELECTIVITY: f64 = 1.0 / 64.0;
/// ROI accuracy target, as a share of the field's value range.
pub const ROI_REL_TARGET: f64 = 1e-4;
/// Name the server registers the small-chunk store under.
pub const DATASET: &str = "field";
/// Cache budget of the server's registry entry.
pub const SERVER_CACHE_BUDGET: usize = 256 << 20;
/// Random Fourier modes of the field: a third of `FieldSpec::turbulent`'s,
/// because field synthesis is pure set-up cost.
const FIELD_MODES: usize = 32;

pub struct Fixture {
    pub shape: [usize; 3],
    /// The field, as the f32 samples the raw file holds.
    pub field: Vec<f32>,
    /// Raw little-endian dump of `field`: what `ingest` reads.
    pub raw: PathBuf,
    /// Store of `field` in `CHUNK_LARGE`³ chunks.
    pub store_large: PathBuf,
    /// Store of `field` in `CHUNK_SMALL`³ chunks.
    pub store_small: PathBuf,
    /// Samples of the field's `[0, extent/2)³` corner, and its monolithic
    /// refactoring: QoI control needs a single-chunk archive.
    pub corner: Vec<f32>,
    pub corner_store: InMemoryStore,
    pub queries: Vec<RegionQuery>,
    /// Absolute L∞ target of every region query.
    pub roi_target: f64,
    pub server: ProgressiveServer,
}

/// Bytes of every regular file directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The query a region of the list turns into.
pub fn region_query(q: &RegionQuery, target: f64) -> Query {
    Query::region(Target::AbsError(target), Region::new(&q.start, &q.extent))
}

impl Fixture {
    /// Build the whole fixture under `dir` (created; must not hold an
    /// earlier fixture).
    pub fn build(seed: u64, extent: usize, dir: &Path) -> Fixture {
        std::fs::create_dir_all(dir).expect("scratch directory is creatable");
        let shape = [extent; 3];
        let spec = FieldSpec {
            modes: FIELD_MODES,
            ..FieldSpec::turbulent(&shape, seed)
        };
        let field = spectral_field(&spec);
        let value_range = hpmdr_datasets::metrics::value_range(&field);
        let field: Vec<f32> = field.into_iter().map(|v| v as f32).collect();

        let raw = dir.join("field.f32");
        let mut bytes = Vec::with_capacity(field.len() * 4);
        for v in &field {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        std::fs::write(&raw, &bytes).expect("raw field file is writable");
        drop(bytes);

        let ingest_to = |chunk: usize, name: &str| {
            let store = dir.join(name);
            let source = FileSource::<f32>::open(&raw, &shape).expect("raw field file opens");
            MdrConfig::new()
                .chunked(&[chunk; 3])
                .build()
                .ingest(source, &store)
                .expect("set-up ingest succeeds");
            store
        };
        let store_large = ingest_to(CHUNK_LARGE, "store-large");
        let store_small = ingest_to(CHUNK_SMALL, "store-small");

        let corner_shape = [extent / 2; 3];
        let corner = extract_region(&field, &shape, &Region::new(&[0; 3], &corner_shape));
        let corner_store = InMemoryStore::from(
            Mdr::with_defaults()
                .refactor(&corner, &corner_shape)
                .expect("corner refactors"),
        );

        let queries = uniform_queries(&shape, QUERY_SELECTIVITY, QUERY_COUNT, seed);

        let mut registry = Registry::new();
        registry
            .open_with_budget(DATASET, &store_small, SERVER_CACHE_BUDGET)
            .expect("server registry opens the small-chunk store");
        let server = ProgressiveServer::serve(registry, ServerConfig::default())
            .expect("loopback server binds");

        Fixture {
            shape,
            field,
            raw,
            store_large,
            store_small,
            corner,
            corner_store,
            queries,
            roi_target: ROI_REL_TARGET * value_range,
            server,
        }
    }

    pub fn input_bytes(&self) -> usize {
        self.field.len() * 4
    }
}
