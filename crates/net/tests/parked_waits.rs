//! A served `Wait` is a registration: a request that would wait on
//! another connection's transaction is parked, and answered in the pass
//! where that transaction ends.
//!
//! Client A holds a variable; client B's update on it gets no answer
//! while it is parked, and its last answer, once A commits, is `Done`
//! with the value A wrote. A park that outlives the server's limit
//! before A's commit reaches the engine (a slow scheduler slice can make
//! one) is answered `Wait` and B resends, so the test counts B's `Wait`s
//! against the server's expiries instead of assuming none.

use ccopt_client::Client;
use ccopt_engine::Op;
use ccopt_model::value::Value;
use ccopt_net::{Server, ServerConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

#[test]
fn a_blocked_update_is_answered_done_once_its_holder_commits() {
    let server = Server::start(ServerConfig {
        cc: "strict-2PL".to_string(),
        num_vars: 8,
        shards: 1,
        ..ServerConfig::default()
    })
    .expect("server");
    let addr = server.local_addr();
    let mut a = Client::connect(addr).expect("connect a");
    let ha = a.begin().expect("begin");
    assert_eq!(
        a.write(ha, 3, Value::Int(7)).expect("write"),
        Op::Done(Value::Int(0))
    );

    let committing = AtomicBool::new(false);
    let (updated, waits) = std::thread::scope(|s| {
        let b = s.spawn(|| {
            let mut b = Client::connect(addr).expect("connect b");
            let hb = b.begin().expect("begin");
            let mut waits = 0u64;
            let got = loop {
                match b.update(hb, 3, 1, 1).expect("update") {
                    Op::Wait => waits += 1,
                    got => break got,
                }
            };
            assert!(
                committing.load(Ordering::SeqCst),
                "answered while the holder still held the variable"
            );
            assert_eq!(b.commit(hb).expect("commit"), Op::Done(()));
            (got, waits)
        });
        // B's request is parked once the server counts it.
        let t0 = Instant::now();
        while a.stats().expect("stats").parks == 0 {
            assert!(t0.elapsed() < Duration::from_secs(10), "B never parked");
            std::thread::yield_now();
        }
        committing.store(true, Ordering::SeqCst);
        assert_eq!(a.commit(ha).expect("commit"), Op::Done(()));
        b.join().expect("client B")
    });
    assert_eq!(updated, Op::Done(Value::Int(7)), "B read A's write");

    // Every `Wait` B heard was a park that expired; its last request
    // either parked and was answered by A's commit, or came after it.
    let stats = a.stats().expect("stats");
    assert_eq!(stats.park_expiries, waits);
    assert!(
        stats.parks >= 1 && stats.parks - waits <= 1,
        "parks {} for {waits} waits",
        stats.parks
    );
    assert_eq!(stats.metrics.commits, 2);
    let drained = server.shutdown().expect("drain");
    assert_eq!(drained.commits, 2);
}
