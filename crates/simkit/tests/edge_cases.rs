//! Edge-case coverage for the runtime: nested spawns, channel corner
//! cases, zero-capacity-like behaviour, busy accounting across tasks, and
//! services against the thread loops they stand for.

use std::sync::Arc;

use simkit::chan::TryRecvError;
use simkit::plock::Mutex;
use simkit::prelude::*;

#[test]
fn nested_spawn_from_spawned_task() {
    let (sum, end) = Runtime::simulate(0, |rt| {
        let h = rt.spawn_with("outer", |rt| {
            let mut inner = Vec::new();
            for i in 0..3u64 {
                inner.push(rt.spawn_with(&format!("inner{i}"), move |rt| {
                    rt.sleep(Dur::micros(i + 1));
                    i * 10
                }));
            }
            inner.into_iter().map(|h| h.join()).sum::<u64>()
        });
        h.join()
    });
    assert_eq!(sum, 30);
    assert_eq!(end.nanos(), 3_000);
}

#[test]
fn try_send_respects_capacity() {
    Runtime::simulate(1, |rt| {
        let (tx, rx) = rt.channel::<u8>(Some(2));
        assert!(tx.try_send(1).is_ok());
        assert!(tx.try_send(2).is_ok());
        assert_eq!(tx.try_send(3), Err(3));
        assert_eq!(rx.try_recv(), Ok(1));
        assert!(tx.try_send(3).is_ok());
        assert_eq!(rx.drain(), vec![2, 3]);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    });
}

#[test]
fn send_to_dropped_receiver_fails() {
    Runtime::simulate(2, |rt| {
        let (tx, rx) = rt.channel::<u8>(None);
        drop(rx);
        assert!(tx.send(1).is_err());
        assert_eq!(tx.try_send(2), Err(2));
    });
}

#[test]
fn cloned_receivers_compete_fifo() {
    let (got, _) = Runtime::simulate(3, |rt| {
        let (tx, rx) = rt.channel::<u32>(None);
        let rx2 = rx.clone();
        let a = rt.spawn_with("a", move |_| rx.recv().unwrap());
        let b = rt.spawn_with("b", move |_| rx2.recv().unwrap());
        rt.sleep(Dur::micros(1));
        tx.send(10).unwrap();
        tx.send(20).unwrap();
        (a.join(), b.join())
    });
    // FIFO wake order: first blocked receiver gets the first message.
    assert_eq!(got, (10, 20));
}

#[test]
fn join_after_finish_returns_immediately() {
    Runtime::simulate(4, |rt| {
        let h = rt.spawn_with("quick", |_| 7u8);
        rt.sleep(Dur::millis(1)); // task long finished
        assert!(h.is_finished());
        let t0 = rt.now();
        assert_eq!(h.join(), 7);
        assert_eq!(rt.now(), t0, "join must not advance time");
    });
}

#[test]
fn work_and_sleep_account_separately() {
    let ((busy, total), end) = Runtime::simulate(5, |rt| {
        rt.work(Dur::micros(3));
        rt.sleep(Dur::micros(7));
        let h = rt.spawn_with("w", |rt| {
            rt.work(Dur::micros(11));
        });
        h.join();
        (rt.my_busy(), rt.total_busy())
    });
    assert_eq!(busy, Dur::micros(3));
    assert_eq!(total, Dur::micros(14));
    assert_eq!(end.nanos(), 21_000);
}

#[test]
fn deeply_chained_pipeline_terminates() {
    // 20 stages, each forwarding through a bounded channel.
    let (count, _) = Runtime::simulate(6, |rt| {
        let (first_tx, mut prev_rx) = rt.channel::<u64>(Some(2));
        for s in 0..20 {
            let (tx, rx) = rt.channel::<u64>(Some(2));
            let rx_in = prev_rx;
            rt.spawn(&format!("stage{s}"), move |rt| {
                while let Ok(v) = rx_in.recv() {
                    rt.work(Dur::nanos(50));
                    if tx.send(v + 1).is_err() {
                        break;
                    }
                }
            });
            prev_rx = rx;
        }
        let sink = prev_rx;
        let producer = rt.spawn("producer", move |_| {
            for i in 0..100u64 {
                first_tx.send(i).unwrap();
            }
        });
        let mut n = 0;
        while let Ok(v) = sink.recv() {
            assert!(v >= 20);
            n += 1;
            if n == 100 {
                break;
            }
        }
        producer.join();
        n
    });
    assert_eq!(count, 100);
}

#[test]
fn barrier_reuse_across_many_generations() {
    Runtime::simulate(7, |rt| {
        let b = Barrier::new(2);
        let b2 = b.clone();
        let h = rt.spawn("peer", move |rt| {
            for _ in 0..50 {
                b2.wait(rt);
                rt.sleep(Dur::nanos(10));
            }
        });
        for _ in 0..50 {
            b.wait(rt);
            rt.sleep(Dur::nanos(10));
        }
        h.join();
        assert_eq!(b.generation(), 50);
    });
}

#[test]
fn semaphore_fifo_under_contention() {
    let (order, _) = Runtime::simulate(8, |rt| {
        let sem = Semaphore::new(rt, 1);
        let (tx, rx) = rt.channel::<u64>(None);
        let mut handles = Vec::new();
        for i in 0..5u64 {
            let sem = sem.clone();
            let tx = tx.clone();
            handles.push(rt.spawn(&format!("t{i}"), move |rt| {
                rt.sleep(Dur::nanos(i)); // arrive in id order
                sem.acquire();
                tx.send(i).unwrap();
                rt.sleep(Dur::micros(1));
                sem.release();
            }));
        }
        drop(tx);
        for h in handles {
            h.join();
        }
        rx.drain()
    });
    assert_eq!(order, vec![0, 1, 2, 3, 4], "FIFO admission");
}

#[test]
fn channel_round_trip_is_two_switches() {
    // Root sends, then blocks in `recv` (switch to the echo participant);
    // the echo replies, then blocks in its own `recv` (switch back).
    Runtime::simulate(9, |rt| {
        let (req_tx, req_rx) = rt.channel::<u32>(None);
        let (rep_tx, rep_rx) = rt.channel::<u32>(None);
        let echo = rt.spawn("echo", move |_| {
            while let Ok(v) = req_rx.recv() {
                rep_tx.send(v + 1).unwrap();
            }
        });
        // Warm-up trip: the echo participant starts and parks in `recv`.
        req_tx.send(0).unwrap();
        assert_eq!(rep_rx.recv().unwrap(), 1);
        let (d0, s0) = (rt.dispatches(), rt.switches());
        for i in 0..100 {
            req_tx.send(i).unwrap();
            assert_eq!(rep_rx.recv().unwrap(), i + 1);
        }
        assert_eq!(rt.switches() - s0, 200);
        assert_eq!(rt.dispatches() - d0, 200);
        drop(req_tx);
        echo.join();
    });
}

// ---- services ----------------------------------------------------------

type Log = Arc<Mutex<Vec<(u64, String)>>>;

/// A job of the lane scenarios: producer, index, busy microseconds.
type Job = (usize, usize, u64);

struct LaneRun {
    log: Vec<(u64, String)>,
    dispatches: u64,
    switches: u64,
    busy: Dur,
    end: Time,
}

/// Drive `lanes` copy-style lanes draining one shared queue, fed by one
/// producer thread per entry of `producers` (each a list of (gap before the
/// send, busy time of the job) in microseconds). The lanes are services,
/// or hand-written thread loops with the same handler.
fn lane_run(as_service: bool, lanes: usize, producers: &[Vec<(u64, u64)>]) -> LaneRun {
    let producers = producers.to_vec();
    let total: usize = producers.iter().map(Vec::len).sum();
    let ((log, dispatches, switches, busy), end) = Runtime::simulate(5, |rt| {
        let log: Log = Arc::new(Mutex::new(Vec::new()));
        let (job_tx, job_rx) = rt.channel::<Job>(None);
        let (done_tx, done_rx) = rt.channel::<Job>(None);
        let mut handles = Vec::new();
        for lane in 0..lanes {
            let (log, done_tx) = (log.clone(), done_tx.clone());
            let handler = move |rt: &Runtime, job: Job| {
                let (p, k, us) = job;
                let now = rt.now().nanos();
                log.lock().push((now, format!("lane{lane} takes p{p}.{k}")));
                let (rt, log, done_tx) = (rt.clone(), log.clone(), done_tx.clone());
                let deliver = move || {
                    let now = rt.now().nanos();
                    log.lock()
                        .push((now, format!("lane{lane} delivers p{p}.{k}")));
                    done_tx.send(job).unwrap();
                };
                (Dur::micros(us), deliver)
            };
            let name = format!("lane{lane}");
            handles.push(if as_service {
                rt.spawn_service(&name, job_rx.clone(), handler)
            } else {
                let rx = job_rx.clone();
                rt.spawn(&name, move |rt| {
                    while let Ok(j) = rx.recv() {
                        let (busy, deliver) = handler(rt, j);
                        rt.work(busy);
                        deliver();
                    }
                })
            });
        }
        drop((job_rx, done_tx));
        for (p, plan) in producers.into_iter().enumerate() {
            let tx = job_tx.clone();
            rt.spawn(&format!("producer{p}"), move |rt| {
                for (k, (gap, us)) in plan.into_iter().enumerate() {
                    rt.sleep(Dur::micros(gap));
                    tx.send((p, k, us)).unwrap();
                }
            });
        }
        drop(job_tx);
        for _ in 0..total {
            let (p, k, _) = done_rx.recv().unwrap();
            let now = rt.now().nanos();
            log.lock().push((now, format!("root gets p{p}.{k}")));
        }
        for h in handles {
            h.join();
        }
        let now = rt.now().nanos();
        log.lock().push((now, "lanes finished".to_string()));
        let log = std::mem::take(&mut *log.lock());
        (log, rt.dispatches(), rt.switches(), rt.total_busy())
    });
    LaneRun {
        log,
        dispatches,
        switches,
        busy,
        end,
    }
}

/// The service and the thread loop take the same decisions: identical
/// event logs, clocks, busy ledgers and dispatch counts; only the OS-thread
/// handoffs differ.
fn assert_service_matches_threads(lanes: usize, producers: &[Vec<(u64, u64)>]) -> LaneRun {
    let threads = lane_run(false, lanes, producers);
    let service = lane_run(true, lanes, producers);
    assert_eq!(service.log, threads.log);
    assert_eq!(service.end, threads.end);
    assert_eq!(service.busy, threads.busy);
    assert_eq!(service.dispatches, threads.dispatches);
    assert!(
        service.switches < threads.switches,
        "service {} vs threads {} switches",
        service.switches,
        threads.switches
    );
    service
}

#[test]
fn service_matches_thread_loop_under_several_producers() {
    let producers = vec![
        vec![(0, 5), (1, 0), (0, 3), (7, 12), (2, 0), (0, 0), (30, 4)],
        vec![(0, 2), (0, 2), (0, 2), (0, 2), (15, 9), (3, 1)],
        vec![(4, 0), (4, 8), (0, 1), (0, 6), (20, 3), (1, 0), (0, 2)],
    ];
    let charged: u64 = producers.iter().flatten().map(|&(_, us)| us).sum();
    for lanes in [1, 2, 3, 5] {
        let run = assert_service_matches_threads(lanes, &producers);
        assert_eq!(run.busy, Dur::micros(charged));
    }
}

#[test]
fn service_zero_busy_takes_the_yield_path() {
    // Zero charges with other participants queued yield to them; with
    // nobody else queued the lane carries straight on.
    let busy_peers = vec![vec![(0, 0), (0, 0), (1, 0)], vec![(0, 0), (0, 3), (0, 0)]];
    assert_service_matches_threads(2, &busy_peers);
    let alone = vec![vec![(0, 0), (0, 0), (0, 0), (2, 0)]];
    let run = assert_service_matches_threads(1, &alone);
    assert_eq!(run.busy, Dur::ZERO);
}

#[test]
fn service_job_waits_while_every_lane_is_busy() {
    // Five 10us jobs at t=0 on two lanes: the third job waits for a lane.
    let burst = vec![vec![(0, 10); 5]];
    let run = assert_service_matches_threads(2, &burst);
    let got: Vec<u64> = run
        .log
        .iter()
        .filter(|(_, e)| e.starts_with("root gets"))
        .map(|&(t, _)| t / 1_000)
        .collect();
    assert_eq!(got, vec![10, 10, 20, 20, 30]);
    assert_eq!(run.end, Time(30_000));
}

#[test]
fn service_finishes_on_disconnect() {
    Runtime::simulate(0, |rt| {
        let (tx, rx) = rt.channel::<u64>(None);
        let svc = rt.spawn_service("svc", rx, |_, us| (Dur::micros(us), || {}));
        tx.send(4).unwrap();
        rt.sleep(Dur::micros(1));
        assert!(!svc.is_finished());
        drop(tx);
        svc.join();
        // The queued job still ran: disconnect ends the loop only once
        // the queue is empty.
        assert_eq!(rt.now(), Time(4_000));
        assert_eq!(rt.total_busy(), Dur::micros(4));
    });
}

#[test]
#[should_panic(expected = "participant 'svc' panicked: handler failed")]
fn service_panic_poisons_with_its_name() {
    Runtime::simulate(0, |rt| {
        let (tx, rx) = rt.channel::<u8>(None);
        let (done_tx, done_rx) = rt.channel::<u8>(None);
        rt.spawn_service("svc", rx, move |_, v| {
            assert!(v < 3, "handler failed");
            let done_tx = done_tx.clone();
            (Dur::micros(1), move || done_tx.send(v).unwrap())
        });
        for v in 0..5 {
            tx.send(v).unwrap();
        }
        while done_rx.recv().is_ok() {}
    });
}

#[test]
#[should_panic(expected = "service handlers must not block: they return their busy time instead")]
fn service_handler_may_not_sleep() {
    Runtime::simulate(0, |rt| {
        let (tx, rx) = rt.channel::<u8>(None);
        rt.spawn_service("sleepy", rx, |rt, _| {
            rt.sleep(Dur::micros(1));
            (Dur::ZERO, || {})
        });
        tx.send(1).unwrap();
        rt.sleep(Dur::micros(10));
    });
}

#[test]
#[should_panic(expected = "service 'waiter' made a blocking call")]
fn service_handler_may_not_recv() {
    Runtime::simulate(0, |rt| {
        let (tx, rx) = rt.channel::<u8>(None);
        let (_side_tx, side_rx) = rt.channel::<u8>(None);
        // Another thread participant stays runnable, so a parked dispatcher
        // would hang rather than deadlock.
        rt.spawn("ticker", |rt| loop {
            rt.sleep(Dur::micros(1));
        });
        rt.spawn_service("waiter", rx, move |_, _| {
            let _ = side_rx.recv();
            (Dur::ZERO, || {})
        });
        tx.send(1).unwrap();
        rt.sleep(Dur::micros(10));
    });
}

#[test]
fn service_teardown_drops_a_pending_delivery() {
    struct Flag(Arc<std::sync::atomic::AtomicBool>);
    impl Drop for Flag {
        fn drop(&mut self) {
            self.0.store(true, std::sync::atomic::Ordering::SeqCst);
        }
    }
    let dropped = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let d2 = dropped.clone();
    let ((), end) = Runtime::simulate(0, move |rt| {
        let (tx, rx) = rt.channel::<u8>(None);
        let (done_tx, done_rx) = rt.channel::<u8>(None);
        rt.spawn_service("slow", rx, move |_, v| {
            // The pending delivery owns a sender into the simulation; it
            // drops during teardown, with the scheduler's lock free.
            let (done_tx, flag) = (done_tx.clone(), Flag(d2.clone()));
            (Dur::millis(1), move || {
                let _flag = flag;
                done_tx.send(v).unwrap();
            })
        });
        // A consumer blocked on the delivery channel: the last sender's
        // drop wakes it through the scheduler.
        rt.spawn("sink", move |_| while done_rx.recv().is_ok() {});
        tx.send(7).unwrap();
        rt.sleep(Dur::micros(10));
    });
    assert_eq!(end, Time(10_000));
    assert!(dropped.load(std::sync::atomic::Ordering::SeqCst));
}

#[test]
#[should_panic(
    expected = "'svc' blocked with no runnable participant (blocked/sleeping: [\"root\", \"svc\"])"
)]
fn deadlock_message_lists_blocked_services() {
    Runtime::simulate(0, |rt| {
        let (_tx, rx) = rt.channel::<u8>(None);
        rt.spawn_service("svc", rx, |_, _| (Dur::ZERO, || {}));
        let (_other_tx, other_rx) = rt.channel::<u8>(None);
        let _ = other_rx.recv();
    });
}

#[test]
fn service_round_trip_is_zero_switches() {
    // The counterpart of `channel_round_trip_is_two_switches` with the echo
    // as a service: the same two dispatches per trip, but root runs the
    // echo's steps itself, so no trip hands off to another OS thread.
    Runtime::simulate(9, |rt| {
        let (req_tx, req_rx) = rt.channel::<u32>(None);
        let (rep_tx, rep_rx) = rt.channel::<u32>(None);
        let echo = rt.spawn_service("echo", req_rx, move |_, v| {
            let rep_tx = rep_tx.clone();
            (Dur::ZERO, move || rep_tx.send(v + 1).unwrap())
        });
        req_tx.send(0).unwrap();
        assert_eq!(rep_rx.recv().unwrap(), 1);
        let (d0, s0) = (rt.dispatches(), rt.switches());
        for i in 0..100 {
            req_tx.send(i).unwrap();
            assert_eq!(rep_rx.recv().unwrap(), i + 1);
        }
        assert_eq!(rt.switches() - s0, 0);
        assert_eq!(rt.dispatches() - d0, 200);
        drop(req_tx);
        echo.join();
    });
}
