//! The brokered venue: an in-process `Broker` in front of one loopback
//! `serve` worker with one trial thread, reached over TCP.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use avf_broker::{Broker, BrokerOptions, BrokeredBackend};
use avf_inject::BackendError;
use avf_service::{spawn_local, ServeOptions};

/// Tenant name the benchmark's campaigns bill to.
pub const TENANT: &str = "perfbench";

static VENUES: AtomicU64 = AtomicU64::new(0);

/// A freshly started broker plus worker, and a driver connection to it.
///
/// The accept loops of the worker and the broker are threads of this
/// process and end with it; the broker's durable log lives in the run's
/// scratch directory and is removed on drop.
pub struct BrokerVenue {
    /// The driver's backend, connected to the broker.
    pub backend: BrokeredBackend,
    _broker: Broker,
    store: PathBuf,
}

impl BrokerVenue {
    /// Starts a worker and a broker on loopback ports, with the broker's
    /// log under `scratch`.
    ///
    /// # Errors
    ///
    /// Fails if a listener cannot bind or the driver cannot connect.
    pub fn start(scratch: &Path) -> Result<BrokerVenue, BackendError> {
        let worker = spawn_local(ServeOptions {
            threads: 1,
            ..ServeOptions::default()
        })?;
        let store = scratch.join(format!(
            "broker-{}.log",
            VENUES.fetch_add(1, Ordering::Relaxed)
        ));
        let broker = Broker::start(BrokerOptions {
            workers: vec![worker.to_string()],
            store_path: store.clone(),
            ..BrokerOptions::default()
        })?;
        let addr = broker.spawn_local()?.to_string();
        let backend = BrokeredBackend::connect(&addr, TENANT, None)?;
        Ok(BrokerVenue {
            backend,
            _broker: broker,
            store,
        })
    }
}

impl Drop for BrokerVenue {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.store);
    }
}
