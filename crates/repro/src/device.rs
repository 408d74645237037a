//! Device handles tying configuration, engines, and buffer pools together.

use crate::buffer::BufferPool;
use crate::config::DeviceConfig;
use crate::queue::{Event, ExecQueue};
use std::sync::Arc;

/// One simulated device: a [`DeviceConfig`] plus the three HDEM engines
/// (two DMA queues and one compute queue) and a staging buffer pool.
///
/// Copies run as real `memcpy`s on the engine threads, so overlap measured
/// through this type is real wall-clock overlap, not a model output.
pub struct Device {
    config: DeviceConfig,
    /// Host→device DMA engine.
    pub h2d: ExecQueue,
    /// Device→host DMA engine.
    pub d2h: ExecQueue,
    /// Compute engine.
    pub compute: ExecQueue,
    pool: BufferPool,
}

impl Device {
    /// Bring up a device with `pool_buffers` staging buffers of
    /// `pool_buffer_bytes` each.
    pub fn new(config: DeviceConfig, pool_buffer_bytes: usize, pool_buffers: usize) -> Self {
        let tag = config.name.clone();
        Device {
            h2d: ExecQueue::new(&format!("{tag}-h2d")),
            d2h: ExecQueue::new(&format!("{tag}-d2h")),
            compute: ExecQueue::new(&format!("{tag}-compute")),
            pool: BufferPool::new(pool_buffer_bytes, pool_buffers),
            config,
        }
    }

    /// Architecture description of this device.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Staging buffer pool of this device.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Wait until all three engines are idle.
    pub fn sync(&self) {
        self.h2d.sync();
        self.compute.sync();
        self.d2h.sync();
    }

    /// Submit a host→device upload of `data` into a fresh pool buffer; the
    /// closure receives the filled buffer once the copy completes.
    pub fn upload_then(
        &self,
        deps: Vec<Event>,
        data: Arc<Vec<u8>>,
        then: impl FnOnce(crate::buffer::PooledBuffer) + Send + 'static,
    ) -> Event {
        let pool = self.pool.clone();
        self.h2d.submit(deps, move || {
            let mut buf = pool.acquire();
            buf.buffer_mut().upload(&data);
            then(buf);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn device_engines_round_trip_data() {
        let dev = Device::new(DeviceConfig::h100_like(), 1 << 10, 2);
        let out = Arc::new(Mutex::new(Vec::new()));
        let data = Arc::new((0u8..100).collect::<Vec<u8>>());
        let out2 = out.clone();
        let e = dev.upload_then(vec![], data.clone(), move |buf| {
            out2.lock()
                .unwrap()
                .extend_from_slice(buf.buffer().as_slice());
        });
        e.wait();
        assert_eq!(*out.lock().unwrap(), *data);
    }

    #[test]
    fn sync_waits_for_compute() {
        let dev = Device::new(DeviceConfig::h100_like(), 64, 1);
        let flag = Arc::new(Mutex::new(false));
        let f = flag.clone();
        dev.compute.submit(vec![], move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            *f.lock().unwrap() = true;
        });
        dev.sync();
        assert!(*flag.lock().unwrap());
    }
}
