//! The asynchronous reliable point-to-point network.
//!
//! Messages that have been sent stay in flight until the scheduler (fair or
//! adversarial) picks them for delivery; the network never loses, duplicates
//! or modifies messages, matching the `BAMP` model of Sect. I.

use crate::types::{Message, ProcessId};

/// The multiset of in-flight messages.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Network {
    inflight: Vec<Message>,
    delivered: usize,
}

impl Network {
    /// An empty network.
    pub fn new() -> Self {
        Network::default()
    }

    /// Sends a batch of messages.
    pub fn send_all(&mut self, msgs: impl IntoIterator<Item = Message>) {
        self.inflight.extend(msgs);
    }

    /// Number of in-flight messages.
    pub fn len(&self) -> usize {
        self.inflight.len()
    }

    /// Whether no message is in flight.
    pub fn is_empty(&self) -> bool {
        self.inflight.is_empty()
    }

    /// Total number of messages delivered so far.
    pub fn delivered_count(&self) -> usize {
        self.delivered
    }

    /// The in-flight messages (scheduler view).
    pub fn inflight(&self) -> &[Message] {
        &self.inflight
    }

    /// Delivers (removes and returns) the in-flight message at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn deliver_at(&mut self, index: usize) -> Message {
        self.delivered += 1;
        self.inflight.swap_remove(index)
    }

    /// Delivers the first in-flight message matching the predicate, if any.
    pub fn deliver_matching(&mut self, mut pred: impl FnMut(&Message) -> bool) -> Option<Message> {
        let idx = self.inflight.iter().position(&mut pred)?;
        Some(self.deliver_at(idx))
    }

    /// Drops every in-flight message addressed to the given process (used for
    /// messages addressed to Byzantine processes, whose behaviour is chosen
    /// by the adversary anyway).
    pub fn drop_addressed_to(&mut self, to: ProcessId) {
        self.inflight.retain(|m| m.to != to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{MessageKind, Value};

    fn msg(from: usize, to: usize) -> Message {
        Message::new(
            ProcessId(from),
            ProcessId(to),
            0,
            MessageKind::Est(Value::ZERO),
        )
    }

    #[test]
    fn send_and_deliver() {
        let mut net = Network::new();
        assert!(net.is_empty());
        net.send_all(vec![msg(0, 1), msg(0, 2), msg(1, 2)]);
        assert_eq!(net.len(), 3);
        let delivered = net.deliver_matching(|m| m.to == ProcessId(2)).unwrap();
        assert_eq!(delivered.to, ProcessId(2));
        assert_eq!(net.len(), 2);
        assert_eq!(net.delivered_count(), 1);
        assert!(net.inflight().iter().any(|m| m.to == ProcessId(1)));
        assert!(net.deliver_matching(|m| m.to == ProcessId(9)).is_none());
    }

    #[test]
    fn drop_addressed_to_byzantine() {
        let mut net = Network::new();
        net.send_all(vec![msg(0, 3), msg(0, 1), msg(2, 3)]);
        net.drop_addressed_to(ProcessId(3));
        assert_eq!(net.len(), 1);
        assert_eq!(net.inflight()[0].to, ProcessId(1));
    }
}
