//! Builds the serving stack from the public API: runtimes, wire frontends
//! and cluster routers behind TCP loopback endpoints.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use pir_cluster::{ClusterConfig, ClusterMembership, ClusterRouter, ShardEndpoints, ShardMap};
use pir_prf::PrfKind;
use pir_protocol::PirTable;
use pir_serve::{
    PirServeRuntime, ServeConfig, ServeHandle, StatsSnapshot, TableConfig, WireFrontend,
};
use pir_wire::{Dialer, PirSession, PirTransport, TcpDialer, TcpTransport};

use crate::truth::splitmix64;

pub const TABLE: &str = "emb";
pub const TENANT: &str = "bench";

/// Table and batching parameters of one serving configuration.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub entries: u64,
    pub entry_bytes: usize,
    pub prf: PrfKind,
    pub max_batch: usize,
    pub max_wait: Duration,
}

/// A runtime hosting one table for both parties.
pub fn runtime(table: PirTable, shape: &Shape, seed: u64) -> Arc<PirServeRuntime> {
    let runtime = PirServeRuntime::new(
        ServeConfig::builder()
            .seed(splitmix64(seed))
            // Backpressure is not under test: no workload comes near these.
            .per_tenant_quota(4096)
            .queue_capacity(4096)
            .build()
            .expect("valid serve config"),
    );
    let config = TableConfig::builder()
        .prf_kind(shape.prf)
        .max_batch(shape.max_batch)
        .max_wait(shape.max_wait)
        .build()
        .expect("valid table config");
    runtime
        .register_table(TABLE, table, config)
        .expect("register table");
    Arc::new(runtime)
}

/// A TCP listener whose accept loop hands every connection to `serve`.
pub struct Endpoint {
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accepted: Arc<Mutex<Vec<TcpStream>>>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    accept: Option<JoinHandle<()>>,
}

impl Endpoint {
    pub fn spawn<F>(serve: F) -> Self
    where
        F: Fn(Box<dyn PirTransport>) + Send + Sync + 'static,
    {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
        let addr = listener.local_addr().expect("listener address");
        let stop = Arc::new(AtomicBool::new(false));
        let accepted: Arc<Mutex<Vec<TcpStream>>> = Arc::default();
        let workers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let serve = Arc::new(serve);
        let accept = {
            let (stop, accepted, workers) = (stop.clone(), accepted.clone(), workers.clone());
            std::thread::spawn(move || {
                while let Ok((stream, _)) = listener.accept() {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    accepted
                        .lock()
                        .expect("accepted list")
                        .push(stream.try_clone().expect("clone stream"));
                    let serve = Arc::clone(&serve);
                    workers
                        .lock()
                        .expect("worker list")
                        .push(std::thread::spawn(move || {
                            let transport = TcpTransport::from_stream(stream).expect("wrap stream");
                            serve(Box::new(transport));
                        }));
                }
            })
        };
        Self {
            addr,
            stop,
            accepted,
            workers,
            accept: Some(accept),
        }
    }

    pub fn dial(&self) -> Box<dyn PirTransport> {
        Box::new(TcpTransport::connect(self.addr).expect("dial loopback endpoint"))
    }

    /// Reset every live connection, stop accepting, and join every thread.
    pub fn close(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for stream in self.accepted.lock().expect("accepted list").drain(..) {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        // Wakes the accept loop so it sees the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            accept.join().expect("accept loop exits");
        }
        for worker in self.workers.lock().expect("worker list").drain(..) {
            worker.join().expect("serve thread exits");
        }
    }
}

fn frontend_endpoint(handle: ServeHandle, party: u8) -> Endpoint {
    Endpoint::spawn(move |transport| {
        let _ = WireFrontend::new(handle.clone(), party).serve(transport);
    })
}

/// One runtime hosting both parties, each behind its own `WireFrontend`.
pub struct Node {
    pub runtime: Arc<PirServeRuntime>,
    endpoints: [Endpoint; 2],
}

impl Node {
    pub fn start(runtime: Arc<PirServeRuntime>) -> Self {
        let endpoints = [0u8, 1].map(|party| frontend_endpoint(runtime.handle(), party));
        Self { runtime, endpoints }
    }

    pub fn session(&self, window: usize) -> PirSession {
        let [e0, e1] = &self.endpoints;
        PirSession::connect_with_window(e0.dial(), e1.dial(), TENANT, window).expect("node session")
    }

    pub fn stop(mut self) {
        for endpoint in &mut self.endpoints {
            endpoint.close();
        }
        self.runtime.shutdown();
    }
}

/// Per party: one runtime + frontend per shard, and a `ClusterRouter`
/// serving the client on its own endpoint.
pub struct Cluster {
    /// `[party][shard]`.
    shards: Vec<Vec<(Arc<PirServeRuntime>, Endpoint)>>,
    pub routers: Vec<Arc<ClusterRouter>>,
    router_endpoints: Vec<Endpoint>,
}

impl Cluster {
    fn start(views: &[PirTable], shape: &Shape, seed: u64) -> Self {
        let mut shards = Vec::new();
        let mut routers = Vec::new();
        let mut router_endpoints = Vec::new();
        for party in 0..2u8 {
            let party_shards: Vec<(Arc<PirServeRuntime>, Endpoint)> = views
                .iter()
                .enumerate()
                .map(|(shard, view)| {
                    let node_seed = seed ^ (u64::from(party) << 32) ^ shard as u64;
                    let runtime = runtime(view.clone(), shape, node_seed);
                    let endpoint = frontend_endpoint(runtime.handle(), party);
                    (runtime, endpoint)
                })
                .collect();
            let membership = ClusterMembership::new(
                party_shards
                    .iter()
                    .map(|(_, endpoint)| {
                        ShardEndpoints::single(Arc::new(TcpDialer::with_timeouts(
                            endpoint.addr,
                            Duration::from_secs(2),
                            Duration::from_secs(20),
                        )) as Arc<dyn Dialer>)
                    })
                    .collect(),
            );
            // No background prober: membership is static and healthy, and
            // probe traffic would only add noise to the measured phase.
            let config = ClusterConfig {
                probe_interval: None,
            };
            let router = Arc::new(
                ClusterRouter::connect(&membership, &config, party).expect("router connect"),
            );
            let serving = Arc::clone(&router);
            router_endpoints.push(Endpoint::spawn(move |transport| {
                let _ = serving.serve(transport);
            }));
            routers.push(router);
            shards.push(party_shards);
        }
        Self {
            shards,
            routers,
            router_endpoints,
        }
    }

    /// Split `table` with `ShardMap` and start the cluster over the views.
    pub fn provision(table: &PirTable, shards: usize, shape: &Shape, seed: u64) -> Self {
        let map = ShardMap::new(table.entries(), shards).expect("shard map");
        Self::start(&map.provision(table), shape, seed)
    }

    pub fn session(&self, window: usize) -> PirSession {
        PirSession::connect_with_window(
            self.router_endpoints[0].dial(),
            self.router_endpoints[1].dial(),
            TENANT,
            window,
        )
        .expect("cluster session")
    }

    pub fn shard_stats(&self) -> Vec<StatsSnapshot> {
        self.shards
            .iter()
            .flatten()
            .map(|(runtime, _)| runtime.stats())
            .collect()
    }

    pub fn stop(mut self) {
        for endpoint in &mut self.router_endpoints {
            endpoint.close();
        }
        for router in &self.routers {
            router.shutdown();
        }
        self.routers.clear();
        for (runtime, endpoint) in self.shards.iter_mut().flatten() {
            endpoint.close();
            runtime.shutdown();
        }
    }
}
