//! Remote chunked stores over HTTP byte ranges.
//!
//! [`RemoteStore`] is the network member of the [`Store`] family: the
//! same sharded layout [`crate::storage::ChunkedStoreReader`] reads
//! from disk, addressed through HTTP instead — `manifest.json` fetched
//! once at open, every unit run one `Range:` request against the
//! owning `c<C>.shard` object. Both readers share the manifest parser
//! and the shard range arithmetic, so a byte range computed here is
//! *definitionally* the range the local reader would `seek` to.
//!
//! A chunk is fetched the way every store fetches one, through the
//! provided [`Store::load_chunk`]: one `Range:` request per non-empty
//! level group, so a query costs as many requests as a local reader
//! makes range reads, and moves exactly the bytes that reader reads.
//!
//! The intended composition is [`CachedStore`](crate::api::CachedStore)
//! `<RemoteStore>`: memory in front, network behind. A repeated query
//! is then a pure cache hit (zero requests), and a deepened error
//! bound extends each cached prefix with exactly one range per group.

use crate::api::Store;
use crate::chunked::ChunkedRefactored;
use crate::error::MdrError;
use crate::storage::{
    manifest_skeleton, parse_chunked_manifest, shard_name, split_units, unit_run, unit_run_range,
};
use hpmdr_netstore::{ClientConfig, HttpClient, HttpError};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A sharded chunk store served over HTTP range requests.
///
/// All methods take `&self` (the [`Store`] sharing contract): the HTTP
/// client pools connections internally and the accounting is atomic,
/// so one `RemoteStore` serves concurrent queries.
#[derive(Debug)]
pub struct RemoteStore {
    /// Store base URL, no trailing slash (objects live at
    /// `{base}/manifest.json`, `{base}/c<C>.shard`).
    base_url: String,
    client: HttpClient,
    skeleton: ChunkedRefactored,
    /// Payload byte length of `unit_lens[chunk][group][unit]`.
    unit_lens: Vec<Vec<Vec<usize>>>,
    /// Payload bytes fetched (the cross-flavor accounting).
    bytes_fetched: AtomicUsize,
}

impl RemoteStore {
    /// Open the store at `base_url` (e.g. `http://host:port` or
    /// `http://host:port/dataset`) with the default transport
    /// configuration: one manifest fetch, no shard I/O.
    pub fn open_url(base_url: &str) -> Result<Self, MdrError> {
        Self::open_with(base_url, ClientConfig::default())
    }

    /// Open the store at `base_url` with an explicit transport
    /// configuration (deadline and retry schedule).
    ///
    /// An unreachable or unreadable remote manifest is
    /// [`MdrError::InvalidInput`] naming the URL and, when the server
    /// answered at all, the HTTP status.
    pub fn open_with(base_url: &str, client: ClientConfig) -> Result<Self, MdrError> {
        if !base_url.starts_with("http://") {
            return Err(MdrError::InvalidInput(format!(
                "remote store URL {base_url:?} is not http:// \
                 (https is unavailable in this pure-std build)"
            )));
        }
        let base_url = base_url.trim_end_matches('/').to_string();
        let client = HttpClient::new(client);
        let manifest_url = format!("{base_url}/manifest.json");
        let raw = client.get(&manifest_url).map_err(|e| match e.status() {
            Some(status) => MdrError::InvalidInput(format!(
                "no HP-MDR store at {base_url}: fetching {manifest_url} \
                 failed with HTTP {status}"
            )),
            None => MdrError::InvalidInput(format!(
                "no HP-MDR store at {base_url}: fetching {manifest_url} failed: {e}"
            )),
        })?;
        let (manifest, grid) = parse_chunked_manifest(&raw)?;
        let (skeleton, unit_lens) = manifest_skeleton(manifest, grid)?;
        Ok(RemoteStore {
            base_url,
            client,
            skeleton,
            unit_lens,
            bytes_fetched: AtomicUsize::new(0),
        })
    }

    /// The store's base URL (no trailing slash).
    pub fn url(&self) -> &str {
        &self.base_url
    }

    /// Retries the transport performed (attempts beyond each request's
    /// first).
    pub fn retries(&self) -> usize {
        self.client.retries()
    }
}

/// Map a shard-fetch transport error onto the taxonomy local stores
/// use: a body shorter than the manifest promises (directly, or as the
/// last straw of exhausted retries) means the remote object is
/// damaged — [`MdrError::Corrupt`], like a truncated local shard; a
/// missing object or a range past its end is also [`MdrError::Corrupt`]
/// (the manifest names data the server does not hold); everything else
/// is [`MdrError::Io`] carrying the URL.
fn shard_error(url: &str, c: usize, e: HttpError) -> MdrError {
    // Unwrap exhausted retries for classification but report the full
    // story (attempt count included) in the message.
    let last = match &e {
        HttpError::RetriesExhausted { last, .. } => last,
        other => other,
    };
    match last {
        HttpError::ShortBody { .. } => {
            MdrError::corrupt(format!("shard c{c} at {url} truncated: {e}"))
        }
        HttpError::Status { status, .. } if *status == 404 || *status == 416 => MdrError::corrupt(
            format!("shard c{c} at {url} does not match its manifest: HTTP {status}"),
        ),
        _ => MdrError::io(
            Path::new(url),
            std::io::Error::other(format!("shard c{c} fetch failed: {e}")),
        ),
    }
}

impl Store for RemoteStore {
    fn flavor(&self) -> &'static str {
        "remote"
    }

    fn meta(&self) -> &ChunkedRefactored {
        &self.skeleton
    }

    fn load_units(
        &self,
        chunk: usize,
        group: usize,
        skip: usize,
        take: usize,
    ) -> Result<Vec<Vec<u8>>, MdrError> {
        let run = unit_run(&self.skeleton, chunk, group, skip, take)?;
        let (start, nbytes) = unit_run_range(&self.unit_lens[chunk], group, run.clone());
        if nbytes == 0 {
            // Nothing stored for this run (empty payloads): no request.
            return Ok(vec![Vec::new(); take]);
        }
        let url = format!("{}/{}", self.base_url, shard_name(chunk));
        let buf = self
            .client
            .get_range(&url, start as usize, nbytes)
            .map_err(|e| shard_error(&url, chunk, e))?;
        // ORDERING: statistics counter, guards nothing.
        self.bytes_fetched.fetch_add(nbytes, Ordering::Relaxed);
        Ok(split_units(&buf, &self.unit_lens[chunk][group][run]))
    }

    fn bytes_fetched(&self) -> usize {
        // ORDERING: monotone statistics read; no ordering with other data.
        self.bytes_fetched.load(Ordering::Relaxed)
    }

    fn requests(&self) -> usize {
        self.client.requests()
    }

    /// Open by URL: `path` must carry an `http://` URL (the form
    /// [`crate::api::open_store`] forwards after sniffing the scheme).
    fn open(path: &Path) -> Result<Self, MdrError> {
        Self::open_url(&path.to_string_lossy())
    }
}
