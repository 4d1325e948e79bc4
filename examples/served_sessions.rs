//! The served system end to end: a TCP server in this process, a fleet
//! of wire clients transferring between accounts that live on different
//! shards, and admission control visibly shedding under pressure.
//!
//! The server is deliberately configured with a tiny open-transaction
//! budget (`max_txns`), so with more clients than budget some
//! transactions' first requests are refused with a shed response. A shed
//! is not an error: the client backs off and sends the same request
//! again, and every transfer still lands exactly once — the final
//! snapshot must conserve the total balance.
//!
//! ```text
//! cargo run --example served_sessions
//! ```

use ccopt::engine::Op;
use ccopt_client::{Client, ClientError};
use ccopt_net::{Server, ServerConfig};
use std::time::Duration;

const ACCOUNTS: u32 = 16;
const CLIENTS: usize = 6;
const TRANSFERS: usize = 20;

/// Move `amount` from `from` to `to`: two affine updates that commit or
/// replay atomically under the server's concurrency control. Returns how
/// many times admission control shed our first request before letting
/// us in.
fn transfer(c: &mut Client, from: u32, to: u32, amount: i64) -> usize {
    let mut sheds = 0;
    let h = c.begin().expect("begin");
    'attempt: loop {
        for (var, delta) in [(from, -amount), (to, amount)] {
            loop {
                match c.update(h, var, 1, delta) {
                    Ok(Op::Done(_)) => break,
                    Ok(Op::Wait) => std::thread::yield_now(),
                    Ok(Op::Restarted) => continue 'attempt,
                    Err(ClientError::Shed) => {
                        // The admission story: back off, then send the
                        // same request again.
                        sheds += 1;
                        std::thread::sleep(Duration::from_millis(1 << sheds.min(5)));
                    }
                    Err(e) => panic!("update: {e}"),
                }
            }
        }
        match c.commit(h).expect("commit") {
            Op::Done(()) => return sheds,
            Op::Wait => std::thread::yield_now(),
            Op::Restarted => continue 'attempt,
        }
    }
}

fn main() {
    // A tiny admission budget on purpose: 6 clients, 2 seats.
    let server = Server::start(ServerConfig {
        cc: "strict-2PL".into(),
        num_vars: ACCOUNTS as usize,
        shards: 4,
        max_txns: 2,
        ..ServerConfig::default()
    })
    .expect("server");
    let addr = server.local_addr();
    println!("server listening on {addr} (4 shards, strict-2PL, max 2 open txns)\n");

    let sheds: usize = std::thread::scope(|s| {
        (0..CLIENTS as u32)
            .map(|t| {
                s.spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    let mut sheds = 0;
                    for k in 0..TRANSFERS as u32 {
                        // A rotating pattern that crosses shard
                        // boundaries and overlaps between clients.
                        let from = (t * 5 + k) % ACCOUNTS;
                        let to = (t * 5 + k + ACCOUNTS / 2) % ACCOUNTS;
                        sheds += transfer(&mut c, from, to, 1 + (k % 7) as i64);
                    }
                    sheds
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("client"))
            .sum()
    });
    println!(
        "{} clients x {} transfers done; first requests shed and retried: {sheds}",
        CLIENTS, TRANSFERS
    );

    // Conservation: transfers move value around, never create it.
    let mut c = Client::connect(addr).expect("connect");
    let h = c.begin().expect("begin");
    let mut total = 0i64;
    println!("\nfinal balances:");
    for var in 0..ACCOUNTS {
        let v = loop {
            match c.read(h, var).expect("read") {
                Op::Done(v) => break v.as_int().expect("int"),
                _ => continue,
            }
        };
        total += v;
        print!("{v:>5}");
        if (var + 1) % 8 == 0 {
            println!();
        }
    }
    c.abort(h).expect("abort reader");
    assert_eq!(total, 0, "transfers conserve the total balance");
    println!("sum = {total} (conserved)");

    let stats = server.shutdown().expect("drain");
    println!(
        "\nserver drained: commits={} aborted_on_drain={} sheds={}",
        stats.commits,
        stats.aborted_on_drain,
        stats.sheds()
    );
    assert_eq!(stats.commits as usize, CLIENTS * TRANSFERS);
    assert!(stats.sheds() as usize >= sheds, "server counted our sheds");
}
