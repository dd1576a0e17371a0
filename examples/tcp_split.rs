//! The paper's deployment (§4.2): open and hidden components in separate
//! processes "that communicated over the local area network". Here the
//! secure server runs on a TCP listener (in a thread, standing in for the
//! second machine) and the open program drives it through the binary wire
//! protocol.
//!
//! ```text
//! cargo run --example tcp_split
//! ```

use hiding_program_slices as hps;
use hps::runtime::tcp::{RetryPolicy, SessionServer, TcpChannel};
use hps::runtime::{run_program, Channel, ExecConfig, Interp, SplitMeta};
use hps::split::{split_program, SplitPlan};
use std::thread;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Protect the calcc benchmark's pipeline.
    let b = hps::suite::benchmark("calcc").expect("suite benchmark");
    let program = b.program()?;
    let plan = SplitPlan::single(&program, "weight_metric", "w")?
        .and_function(&program, "emit_len", "body")?;
    let split = split_program(&program, &plan)?;

    // "Secure machine": a TCP server holding only the hidden program.
    let server = SessionServer::bind("127.0.0.1:0", split.hidden.clone())?;
    let handle = server.handle()?;
    let server_thread = thread::spawn(move || server.serve(|_, _| {}));

    // "Unsecure machine": runs the open program, knows only component
    // routing metadata, and reaches the fragments over the socket.
    let mut channel = TcpChannel::connect_reliable(handle.addr(), RetryPolicy::new())?;
    let meta = SplitMeta::derive(&split.open, &split.hidden);
    let input = b.workload(400, 7);
    let outcome = {
        let mut interp =
            Interp::new(&split.open, ExecConfig::new()).with_channel(&mut channel, &meta);
        interp.run("main", &[input])?
    };
    let interactions = channel.interactions();
    channel.shutdown()?;
    handle.stop();
    server_thread.join().expect("server thread")?;
    let served = handle.stats().calls;

    println!("split output over TCP: {:?}", outcome.output);
    println!("interactions: {interactions} (server served {served})");

    // Cross-check against the unsplit program.
    let original = run_program(&program, &[b.workload(400, 7)])?;
    assert_eq!(original.output, outcome.output);
    println!("matches the unsplit program — full functionality requires the secure server.");
    Ok(())
}
