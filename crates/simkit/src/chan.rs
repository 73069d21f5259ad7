//! Channels that work in both virtual-time and real-time runtimes.
//!
//! In simulation mode a blocked receiver/sender is descheduled through the
//! deterministic scheduler; wake order is FIFO, so message delivery order is
//! reproducible. In real mode the implementation delegates to the in-tree
//! blocking MPMC channel ([`crate::mpmc`]). Sending and receiving consume
//! **zero virtual time**; processing costs are modelled explicitly by the
//! components via `Runtime::work`.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::mpmc;
use crate::plock::Mutex;
use crate::sched::{Pid, SimCore};

/// Error returned by `recv` when the channel is empty and all senders are gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Error returned by `send` when all receivers are gone (payload returned).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error returned by `try_recv`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    Empty,
    Disconnected,
}

/// Outcome of [`Receiver::poll_recv`].
pub(crate) enum Polled<T> {
    Value(T),
    Waiting,
    Closed,
}

struct SimState<T> {
    queue: VecDeque<T>,
    cap: Option<usize>,
    senders: usize,
    receivers: usize,
    recv_waiters: VecDeque<Pid>,
    send_waiters: VecDeque<Pid>,
}

struct SimChan<T> {
    core: Arc<SimCore>,
    st: Mutex<SimState<T>>,
}

impl<T> SimChan<T> {
    fn wake_one_recv(&self, st: &mut SimState<T>) {
        if let Some(p) = st.recv_waiters.pop_front() {
            self.core.make_ready(p);
        }
    }

    fn wake_one_send(&self, st: &mut SimState<T>) {
        if let Some(p) = st.send_waiters.pop_front() {
            self.core.make_ready(p);
        }
    }

    fn wake_all(&self, st: &mut SimState<T>) {
        for p in st.recv_waiters.drain(..) {
            self.core.make_ready(p);
        }
        for p in st.send_waiters.drain(..) {
            self.core.make_ready(p);
        }
    }
}

enum SenderImpl<T> {
    Sim(Arc<SimChan<T>>),
    Real(mpmc::Tx<T>),
}

enum ReceiverImpl<T> {
    Sim(Arc<SimChan<T>>),
    Real(mpmc::Rx<T>),
}

/// Sending half of a channel (cloneable; MPMC).
pub struct Sender<T>(SenderImpl<T>);

/// Receiving half of a channel (cloneable; MPMC).
pub struct Receiver<T>(ReceiverImpl<T>);

pub(crate) fn sim_channel<T: Send>(
    core: Arc<SimCore>,
    cap: Option<usize>,
) -> (Sender<T>, Receiver<T>) {
    let ch = Arc::new(SimChan {
        core,
        st: Mutex::new(SimState {
            queue: VecDeque::new(),
            cap,
            senders: 1,
            receivers: 1,
            recv_waiters: VecDeque::new(),
            send_waiters: VecDeque::new(),
        }),
    });
    (
        Sender(SenderImpl::Sim(ch.clone())),
        Receiver(ReceiverImpl::Sim(ch)),
    )
}

pub(crate) fn real_channel<T: Send>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let (s, r) = mpmc::channel(cap);
    (Sender(SenderImpl::Real(s)), Receiver(ReceiverImpl::Real(r)))
}

impl<T: Send> Sender<T> {
    /// Send a value, blocking (in virtual or real time) while the channel is
    /// at capacity. Returns the value back if all receivers are gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        match &self.0 {
            SenderImpl::Sim(ch) => loop {
                let mut st = ch.st.lock();
                if st.receivers == 0 {
                    return Err(SendError(value));
                }
                let full = st.cap.is_some_and(|c| st.queue.len() >= c);
                if !full {
                    st.queue.push_back(value);
                    ch.wake_one_recv(&mut st);
                    return Ok(());
                }
                let me = ch.core.current_pid();
                st.send_waiters.push_back(me);
                drop(st);
                // `block()` returns when a receiver frees space; retry.
                ch.core.block();
            },
            SenderImpl::Real(s) => s.send(value).map_err(SendError),
        }
    }

    /// Non-blocking send. On a full channel returns `Err` with the value.
    pub fn try_send(&self, value: T) -> Result<(), T> {
        match &self.0 {
            SenderImpl::Sim(ch) => {
                let mut st = ch.st.lock();
                if st.receivers == 0 || st.cap.is_some_and(|c| st.queue.len() >= c) {
                    return Err(value);
                }
                st.queue.push_back(value);
                ch.wake_one_recv(&mut st);
                Ok(())
            }
            SenderImpl::Real(s) => s.try_send(value),
        }
    }

    /// Number of queued messages (snapshot).
    pub fn len(&self) -> usize {
        match &self.0 {
            SenderImpl::Sim(ch) => ch.st.lock().queue.len(),
            SenderImpl::Real(s) => s.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: Send> Receiver<T> {
    /// Receive a value, blocking until one is available or all senders drop.
    pub fn recv(&self) -> Result<T, RecvError> {
        match &self.0 {
            ReceiverImpl::Sim(ch) => loop {
                let mut st = ch.st.lock();
                if let Some(v) = st.queue.pop_front() {
                    ch.wake_one_send(&mut st);
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                let me = ch.core.current_pid();
                st.recv_waiters.push_back(me);
                drop(st);
                ch.core.block();
            },
            ReceiverImpl::Real(r) => r.recv().map_err(|_| RecvError),
        }
    }

    /// A service step's receive: the next queued value, or — when the
    /// channel is empty but connected — the calling participant registered
    /// as a receive waiter, exactly as [`Receiver::recv`] registers before
    /// it blocks. Simulation only.
    pub(crate) fn poll_recv(&self) -> Polled<T> {
        let ReceiverImpl::Sim(ch) = &self.0 else {
            unreachable!("services are driven by the simulation scheduler only");
        };
        let mut st = ch.st.lock();
        if let Some(v) = st.queue.pop_front() {
            ch.wake_one_send(&mut st);
            return Polled::Value(v);
        }
        if st.senders == 0 {
            return Polled::Closed;
        }
        let me = ch.core.current_pid();
        st.recv_waiters.push_back(me);
        Polled::Waiting
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        match &self.0 {
            ReceiverImpl::Sim(ch) => {
                let mut st = ch.st.lock();
                if let Some(v) = st.queue.pop_front() {
                    ch.wake_one_send(&mut st);
                    return Ok(v);
                }
                if st.senders == 0 {
                    Err(TryRecvError::Disconnected)
                } else {
                    Err(TryRecvError::Empty)
                }
            }
            ReceiverImpl::Real(r) => r.try_recv().map_err(|e| match e {
                mpmc::TryRecvErr::Empty => TryRecvError::Empty,
                mpmc::TryRecvErr::Disconnected => TryRecvError::Disconnected,
            }),
        }
    }

    /// Drain everything currently queued without blocking.
    pub fn drain(&self) -> Vec<T> {
        let mut out = Vec::new();
        while let Ok(v) = self.try_recv() {
            out.push(v);
        }
        out
    }

    /// Number of queued messages (snapshot).
    pub fn len(&self) -> usize {
        match &self.0 {
            ReceiverImpl::Sim(ch) => ch.st.lock().queue.len(),
            ReceiverImpl::Real(r) => r.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        match &self.0 {
            SenderImpl::Sim(ch) => {
                ch.st.lock().senders += 1;
                Sender(SenderImpl::Sim(ch.clone()))
            }
            SenderImpl::Real(s) => Sender(SenderImpl::Real(s.clone())),
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        match &self.0 {
            ReceiverImpl::Sim(ch) => {
                ch.st.lock().receivers += 1;
                Receiver(ReceiverImpl::Sim(ch.clone()))
            }
            ReceiverImpl::Real(r) => Receiver(ReceiverImpl::Real(r.clone())),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if let SenderImpl::Sim(ch) = &self.0 {
            let mut st = ch.st.lock();
            st.senders -= 1;
            if st.senders == 0 {
                // Receivers must observe disconnection.
                ch.wake_all(&mut st);
            }
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        if let ReceiverImpl::Sim(ch) = &self.0 {
            let mut st = ch.st.lock();
            st.receivers -= 1;
            if st.receivers == 0 {
                ch.wake_all(&mut st);
            }
        }
    }
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Sender")
    }
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Receiver")
    }
}
