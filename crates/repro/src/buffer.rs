//! Device memory buffers and buffer pools.
//!
//! In the Host-Device Execution Model, refactoring large datasets requires
//! staging sub-domains through fixed-size device buffers (the paper's
//! `I1..I3` / `O1..O3` in Figure 4). [`DeviceBuffer`] is a page-sized-
//! aligned byte buffer standing in for a device allocation; [`BufferPool`]
//! hands out a bounded number of them, blocking when the pool is exhausted
//! exactly like a triple-buffered pipeline blocks when all staging slots
//! are in flight.

use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// A (simulated) device memory allocation.
///
/// Plain heap memory; the point of the type is to make host→device and
/// device→host copies explicit, so pipeline stages can only exchange data
/// through the DMA engines, as on real hardware.
#[derive(Debug)]
pub struct DeviceBuffer {
    data: Vec<u8>,
    /// Logical number of valid bytes (≤ capacity).
    len: usize,
}

impl DeviceBuffer {
    /// Allocate a buffer with `capacity` bytes, zero-initialized.
    pub fn new(capacity: usize) -> Self {
        DeviceBuffer {
            data: vec![0u8; capacity],
            len: 0,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    /// Valid bytes currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no valid bytes are held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Copy `src` into the buffer (host→device DMA payload).
    ///
    /// # Panics
    /// Panics if `src` exceeds capacity.
    pub fn upload(&mut self, src: &[u8]) {
        assert!(
            src.len() <= self.capacity(),
            "upload overflows device buffer"
        );
        self.data[..src.len()].copy_from_slice(src);
        self.len = src.len();
    }

    /// Copy the valid bytes out into `dst` (device→host DMA payload),
    /// returning the number of bytes written.
    ///
    /// # Panics
    /// Panics if `dst` is smaller than `len()`.
    pub fn download(&self, dst: &mut [u8]) -> usize {
        assert!(dst.len() >= self.len, "download target too small");
        dst[..self.len].copy_from_slice(&self.data[..self.len]);
        self.len
    }

    /// Immutable view of the valid bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[..self.len]
    }

    /// Mutable view of the full capacity; `set_len` afterwards to publish.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Publish `len` valid bytes after writing through `as_mut_slice`.
    ///
    /// # Panics
    /// Panics if `len` exceeds capacity.
    pub fn set_len(&mut self, len: usize) {
        assert!(len <= self.capacity());
        self.len = len;
    }
}

struct PoolInner {
    free: Mutex<Vec<DeviceBuffer>>,
    available: Condvar,
    capacity_each: usize,
}

/// A bounded pool of equally-sized device buffers.
///
/// `acquire` blocks when all buffers are checked out; dropping a
/// [`PooledBuffer`] returns it. The bound is what creates the pipeline
/// back-pressure the Figure 4 schedule relies on.
#[derive(Clone)]
pub struct BufferPool {
    inner: Arc<PoolInner>,
}

impl BufferPool {
    /// Create a pool of `count` buffers of `capacity_each` bytes.
    pub fn new(capacity_each: usize, count: usize) -> Self {
        let free = (0..count)
            .map(|_| DeviceBuffer::new(capacity_each))
            .collect();
        BufferPool {
            inner: Arc::new(PoolInner {
                free: Mutex::new(free),
                available: Condvar::new(),
                capacity_each,
            }),
        }
    }

    /// Byte capacity of each pooled buffer.
    pub fn buffer_capacity(&self) -> usize {
        self.inner.capacity_each
    }

    /// Number of currently free buffers (racy; for tests/metrics only).
    pub fn free_count(&self) -> usize {
        self.inner
            .free
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Block until a buffer is free and check it out.
    pub fn acquire(&self) -> PooledBuffer {
        let mut free = self
            .inner
            .free
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while free.is_empty() {
            free = self
                .inner
                .available
                .wait(free)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let mut buf = free.pop().expect("non-empty after wait");
        buf.set_len(0);
        PooledBuffer {
            buf: Some(buf),
            pool: self.inner.clone(),
        }
    }

    /// Try to check out a buffer without blocking.
    pub fn try_acquire(&self) -> Option<PooledBuffer> {
        let mut free = self
            .inner
            .free
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        free.pop().map(|mut buf| {
            buf.set_len(0);
            PooledBuffer {
                buf: Some(buf),
                pool: self.inner.clone(),
            }
        })
    }
}

/// RAII guard for a pool buffer; returns it to the pool on drop.
pub struct PooledBuffer {
    buf: Option<DeviceBuffer>,
    pool: Arc<PoolInner>,
}

impl PooledBuffer {
    /// Access the underlying buffer.
    pub fn buffer(&self) -> &DeviceBuffer {
        self.buf.as_ref().expect("buffer present until drop")
    }

    /// Mutable access to the underlying buffer.
    pub fn buffer_mut(&mut self) -> &mut DeviceBuffer {
        self.buf.as_mut().expect("buffer present until drop")
    }
}

impl Drop for PooledBuffer {
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            self.pool
                .free
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(buf);
            self.pool.available.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn upload_download_roundtrip() {
        let mut b = DeviceBuffer::new(64);
        b.upload(&[1, 2, 3, 4]);
        assert_eq!(b.len(), 4);
        let mut out = [0u8; 8];
        assert_eq!(b.download(&mut out), 4);
        assert_eq!(&out[..4], &[1, 2, 3, 4]);
    }

    #[test]
    #[should_panic]
    fn upload_overflow_panics() {
        let mut b = DeviceBuffer::new(2);
        b.upload(&[1, 2, 3]);
    }

    #[test]
    fn pool_blocks_until_returned() {
        let pool = BufferPool::new(16, 1);
        let held = pool.acquire();
        assert!(pool.try_acquire().is_none());

        let pool2 = pool.clone();
        let t = thread::spawn(move || {
            let _b = pool2.acquire(); // must block until `held` drops
        });
        thread::sleep(Duration::from_millis(20));
        drop(held);
        t.join().unwrap();
        assert_eq!(pool.free_count(), 1);
    }

    #[test]
    fn acquired_buffer_starts_empty() {
        let pool = BufferPool::new(16, 1);
        {
            let mut b = pool.acquire();
            b.buffer_mut().upload(&[9; 10]);
        }
        let b = pool.acquire();
        assert!(b.buffer().is_empty());
    }

    #[test]
    fn pool_hands_out_all_buffers() {
        let pool = BufferPool::new(8, 3);
        let a = pool.try_acquire();
        let b = pool.try_acquire();
        let c = pool.try_acquire();
        assert!(a.is_some() && b.is_some() && c.is_some());
        assert!(pool.try_acquire().is_none());
    }
}
