//! Offline stand-in for the `crossbeam` crate.
//!
//! Provides the `channel::unbounded` MPSC subset, backed by
//! `std::sync::mpsc`. Nothing in the workspace uses it any more; it stays a
//! dependency of `guardrails` so that `perfbench/Cargo.lock` does not change.

#![warn(missing_docs)]

/// Multi-producer channels (a subset of crossbeam's `channel` module).
pub mod channel {
    use std::sync::mpsc;

    /// Sending half of an unbounded channel.
    #[derive(Debug)]
    pub struct Sender<T> {
        inner: mpsc::Sender<T>,
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender {
                inner: self.inner.clone(),
            }
        }
    }

    /// Error returned when sending on a channel whose receiver is gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned when receiving on a channel whose senders are gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    impl<T> Sender<T> {
        /// Sends `value`, failing only if the receiver was dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.inner
                .send(value)
                .map_err(|mpsc::SendError(v)| SendError(v))
        }
    }

    /// Receiving half of an unbounded channel.
    #[derive(Debug)]
    pub struct Receiver<T> {
        inner: mpsc::Receiver<T>,
    }

    impl<T> Receiver<T> {
        /// Blocks until a value arrives or every sender is dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.inner.recv().map_err(|_| RecvError)
        }

        /// Returns a pending value without blocking, if one is queued.
        pub fn try_recv(&self) -> Option<T> {
            self.inner.try_recv().ok()
        }
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender { inner: tx }, Receiver { inner: rx })
    }
}

#[cfg(test)]
mod tests {
    use super::channel;

    #[test]
    fn send_recv_roundtrip() {
        let (tx, rx) = channel::unbounded();
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        drop((tx, tx2));
        assert_eq!(rx.recv(), Err(channel::RecvError));
    }

    #[test]
    fn cross_thread() {
        let (tx, rx) = channel::unbounded();
        let h = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        let mut sum = 0;
        while let Ok(v) = rx.recv() {
            sum += v;
        }
        h.join().unwrap();
        assert_eq!(sum, 4950);
    }
}
