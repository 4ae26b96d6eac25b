//! Heap budget of the victim race path.
//!
//! Every population-scale result simulates the paper's injection race once
//! per victim, so what one victim costs the allocator is multiplied by the
//! fleet size. This test builds the race world through public APIs only —
//! the master's packet tap, the simulator, a fixed-response server and
//! requests encoded once per world — attaches 1,024 victims with the fleet's
//! 7:1 mix of prepared (`my.js`) and unprepared (`weather.js`) requests, and
//! counts heap allocations per victim:
//!
//! * attaching a victim (`add_host` + `connect` + `send_bytes`) may allocate
//!   its connection slab, its demultiplexing table and its queue of data sent
//!   before the handshake, and nothing else;
//! * running the world to idle allocates nothing per victim: what remains
//!   is the amortised growth of tables shared by every victim (the event
//!   queue, the server's connections), a few dozen blocks per world.
//!
//! The counter is a const-initialised thread-local, so tests running in
//! parallel on other threads do not show up in it.

use bytes::Bytes;
use mp_httpsim::body::{Body, ResourceKind};
use mp_httpsim::message::{Request, Response};
use mp_httpsim::url::Url;
use mp_netsim::addr::IpAddr;
use mp_netsim::capture::TraceMode;
use mp_netsim::link::MediumKind;
use mp_netsim::sim::{FixedResponder, Simulator};
use mp_netsim::time::Duration;
use parasite::experiments::MASTER_HOST;
use parasite::master::Master;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator may run while this thread's locals are torn
    // down; those allocations simply go uncounted.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Forwards to the system allocator, counting every new block allocated on
/// the current thread.
struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter neither allocates nor
// touches the memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Growing an existing block is the amortised slab growth the budget
        // allows; only new blocks count.
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const VICTIMS: usize = 1_024;

#[test]
fn the_race_path_allocates_only_per_connection_tables() {
    let target = Url::parse("http://somesite.com/my.js").unwrap();
    let other = Url::parse("http://somesite.com/weather.js").unwrap();
    let genuine = Response::ok(Body::text(ResourceKind::JavaScript, "function genuine(){}"))
        .with_cache_control("public, max-age=86400");
    let (tap, stats) = Master::new(MASTER_HOST)
        .packet_tap(&[(target.clone(), genuine.clone())], Duration::from_micros(300));
    let forged = tap.prepared_wire(&target).unwrap().clone();
    let genuine = Bytes::from(genuine.to_wire());
    let requests = [target, other].map(|url| Bytes::from(Request::get(url).to_wire()));

    // The paper's Figure 2 geometry: 2 ms shared WiFi, 40 ms WAN.
    let mut sim = Simulator::new(2021).with_trace_mode(TraceMode::SummaryOnly);
    let wifi = sim.add_medium(MediumKind::SharedWireless, 2_000);
    let wan = sim.add_medium(MediumKind::WideArea, 40_000);
    let server = sim.add_host("server", IpAddr::new(203, 0, 113, 10), wan);
    sim.listen(server, 80);
    sim.set_service(
        server,
        Box::new(FixedResponder::new(genuine.clone(), Duration::from_micros(500))),
    );
    sim.add_tap(wifi, Box::new(tap));
    let mut victims = Vec::with_capacity(VICTIMS);

    let before_setup = allocations();
    for index in 0..VICTIMS {
        let ip = IpAddr::new(10, (index >> 8) as u8, (index & 0xff) as u8, 2);
        let client = sim.add_host("client", ip, wifi);
        let conn = sim.connect(client, server, 80).unwrap();
        let request = requests[usize::from(index % 8 == 7)].clone();
        sim.send_bytes(client, conn, request).unwrap();
        victims.push((client, conn));
    }
    let setup = allocations() - before_setup;

    let before_run = allocations();
    sim.run_until_idle().unwrap();
    let run = allocations() - before_run;

    // The race really ran: prepared requests got the forged response, the
    // rest the genuine one.
    for (index, &(client, conn)) in victims.iter().enumerate() {
        let expected = if index % 8 == 7 { &genuine } else { &forged };
        assert_eq!(sim.host(client).received(conn), &expected[..], "victim {index}");
    }
    let stats = stats.lock().unwrap();
    assert_eq!(stats.responses_injected, (VICTIMS - VICTIMS / 8) as u64);
    assert_eq!(stats.passthrough, (VICTIMS / 8) as u64);
    assert_eq!(sim.pending_send_buffers(), 0);

    let per_victim = |count: u64| count as f64 / VICTIMS as f64;
    assert!(
        per_victim(setup) < 3.5,
        "attaching a victim made {:.2} allocations (budget 3.5: connection slab, demux table, pre-handshake queue)",
        per_victim(setup)
    );
    assert!(
        per_victim(run) < 0.1,
        "running the race made {:.2} allocations per victim (budget 0.1: amortised table growth only)",
        per_victim(run)
    );
}
