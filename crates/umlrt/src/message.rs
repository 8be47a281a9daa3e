//! Prioritised signal messages and the run-to-completion message queue.

use crate::value::Value;
use std::collections::VecDeque;
use std::fmt;

/// UML-RT message priority bands, highest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Lowest band, housekeeping work.
    Background,
    /// Below-normal band.
    Low,
    /// Default band.
    #[default]
    General,
    /// Above-normal band (control-critical events).
    High,
    /// Highest band (faults, panics).
    Panic,
}

impl Priority {
    /// All priorities from lowest to highest.
    pub const ALL: [Priority; 5] =
        [Priority::Background, Priority::Low, Priority::General, Priority::High, Priority::Panic];
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Priority::Background => "background",
            Priority::Low => "low",
            Priority::General => "general",
            Priority::High => "high",
            Priority::Panic => "panic",
        };
        f.write_str(name)
    }
}

/// Longest signal or port name, in bytes, that a [`Message`] stores
/// inline; a longer name costs one boxed copy.
pub const INLINE_NAME_BYTES: usize = 22;

/// A signal or port name: inline up to [`INLINE_NAME_BYTES`] bytes, so
/// building, copying and re-addressing a message with short names never
/// touches the heap. Both variants fit in the 24 bytes of a `String`.
#[derive(Clone)]
enum Name {
    /// `bytes[..len]` is a copy of a whole `&str`.
    Inline {
        len: u8,
        bytes: [u8; INLINE_NAME_BYTES],
    },
    Boxed(Box<str>),
}

impl Name {
    #[inline]
    fn new(name: &str) -> Self {
        if name.len() <= INLINE_NAME_BYTES {
            let mut bytes = [0; INLINE_NAME_BYTES];
            bytes[..name.len()].copy_from_slice(name.as_bytes());
            Name::Inline { len: name.len() as u8, bytes }
        } else {
            Name::Boxed(name.into())
        }
    }

    #[inline]
    fn as_str(&self) -> &str {
        match self {
            // SAFETY: `Name::new` is the only constructor, and it copies
            // all the bytes of a `&str` (never a partial character) into
            // `bytes[..len]`, so they are valid UTF-8.
            Name::Inline { len, bytes } => unsafe {
                std::str::from_utf8_unchecked(&bytes[..usize::from(*len)])
            },
            Name::Boxed(name) => name,
        }
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// An asynchronous signal message.
///
/// Signal and port names of at most [`INLINE_NAME_BYTES`] bytes are
/// stored inline, so sending, routing and re-addressing such a message
/// allocates nothing.
///
/// # Examples
///
/// ```
/// use urt_umlrt::message::{Message, Priority};
/// use urt_umlrt::value::Value;
///
/// let m = Message::new("setpoint", Value::Real(22.5)).with_priority(Priority::High);
/// assert_eq!(m.signal(), "setpoint");
/// assert_eq!(m.priority(), Priority::High);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    signal: Name,
    value: Value,
    priority: Priority,
    /// Destination port on the receiving capsule; filled in by routing.
    port: Name,
    /// Virtual time the message was sent, seconds.
    sent_at: f64,
}

impl Message {
    /// Creates a message with [`Priority::General`].
    pub fn new(signal: impl AsRef<str>, value: Value) -> Self {
        Message {
            signal: Name::new(signal.as_ref()),
            value,
            priority: Priority::General,
            port: Name::new(""),
            sent_at: 0.0,
        }
    }

    /// Sets the priority (builder style).
    #[inline]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the destination port name (builder style; used by routing).
    #[inline]
    pub fn with_port(mut self, port: impl AsRef<str>) -> Self {
        self.port = Name::new(port.as_ref());
        self
    }

    /// Sets the send timestamp (builder style; used by the controller).
    #[inline]
    pub fn with_sent_at(mut self, t: f64) -> Self {
        self.sent_at = t;
        self
    }

    /// The signal name.
    #[inline]
    pub fn signal(&self) -> &str {
        self.signal.as_str()
    }

    /// The payload.
    #[inline]
    pub fn value(&self) -> &Value {
        &self.value
    }

    /// The priority band.
    #[inline]
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// The port this message arrived on (empty until routed).
    #[inline]
    pub fn port(&self) -> &str {
        self.port.as_str()
    }

    /// Virtual send time in seconds.
    #[inline]
    pub fn sent_at(&self) -> f64 {
        self.sent_at
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({}) on `{}`", self.signal(), self.value, self.port())
    }
}

/// A message queued for a particular capsule.
#[derive(Debug, Clone)]
pub struct QueuedMessage {
    /// Index of the destination capsule within its controller.
    pub capsule: usize,
    /// The message itself.
    pub message: Message,
}

/// The controller's run-to-completion queue: strict priority bands with
/// FIFO order inside each band, one ring buffer per [`Priority`].
///
/// # Examples
///
/// ```
/// use urt_umlrt::message::{Message, MessageQueue, Priority};
/// use urt_umlrt::value::Value;
///
/// let mut q = MessageQueue::new();
/// q.push(0, Message::new("low", Value::Empty));
/// q.push(0, Message::new("hot", Value::Empty).with_priority(Priority::Panic));
/// assert_eq!(q.pop().unwrap().message.signal(), "hot");
/// assert_eq!(q.pop().unwrap().message.signal(), "low");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Default)]
pub struct MessageQueue {
    /// `bands[p as usize]` holds the pending messages of priority `p`,
    /// oldest first.
    bands: [VecDeque<QueuedMessage>; Priority::ALL.len()],
    len: usize,
}

impl MessageQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues `message` for capsule index `capsule`.
    #[inline]
    pub fn push(&mut self, capsule: usize, message: Message) {
        self.bands[message.priority as usize].push_back(QueuedMessage { capsule, message });
        self.len += 1;
    }

    /// Dequeues the highest-priority, oldest message.
    #[inline]
    pub fn pop(&mut self) -> Option<QueuedMessage> {
        if self.len == 0 {
            return None;
        }
        let queued = self.bands.iter_mut().rev().find_map(VecDeque::pop_front);
        self.len -= 1;
        queued
    }

    /// Number of pending messages.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no messages are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_ordering() {
        assert!(Priority::Panic > Priority::High);
        assert!(Priority::High > Priority::General);
        assert!(Priority::General > Priority::Low);
        assert!(Priority::Low > Priority::Background);
        assert_eq!(Priority::default(), Priority::General);
        assert_eq!(Priority::Panic.to_string(), "panic");
    }

    #[test]
    fn message_builders() {
        let m = Message::new("s", Value::Int(1))
            .with_priority(Priority::Low)
            .with_port("p")
            .with_sent_at(2.0);
        assert_eq!(m.signal(), "s");
        assert_eq!(m.value(), &Value::Int(1));
        assert_eq!(m.priority(), Priority::Low);
        assert_eq!(m.port(), "p");
        assert_eq!(m.sent_at(), 2.0);
        assert_eq!(m.to_string(), "s(1) on `p`");
    }

    #[test]
    fn queue_is_fifo_within_band() {
        let mut q = MessageQueue::new();
        q.push(0, Message::new("a", Value::Empty));
        q.push(1, Message::new("b", Value::Empty));
        q.push(2, Message::new("c", Value::Empty));
        assert_eq!(q.pop().unwrap().message.signal(), "a");
        assert_eq!(q.pop().unwrap().message.signal(), "b");
        assert_eq!(q.pop().unwrap().message.signal(), "c");
    }

    #[test]
    fn queue_priority_preempts_fifo() {
        let mut q = MessageQueue::new();
        q.push(0, Message::new("first-low", Value::Empty).with_priority(Priority::Low));
        q.push(0, Message::new("then-high", Value::Empty).with_priority(Priority::High));
        q.push(0, Message::new("then-general", Value::Empty));
        assert_eq!(q.pop().unwrap().message.signal(), "then-high");
        assert_eq!(q.pop().unwrap().message.signal(), "then-general");
        assert_eq!(q.pop().unwrap().message.signal(), "first-low");
    }

    #[test]
    fn names_are_inline_up_to_the_limit_and_boxed_beyond() {
        assert_eq!(std::mem::size_of::<Name>(), std::mem::size_of::<String>());
        let at_limit = "s".repeat(INLINE_NAME_BYTES);
        let beyond = "é".repeat(INLINE_NAME_BYTES);
        assert!(matches!(Name::new(&at_limit), Name::Inline { .. }));
        assert!(matches!(Name::new(&beyond), Name::Boxed(_)));
        let m = Message::new(&beyond, Value::Empty).with_port(&at_limit);
        assert_eq!(m.signal(), beyond);
        assert_eq!(m.port(), at_limit);
        // Multi-byte characters up to the limit stay whole.
        assert_eq!(Message::new("ü→x", Value::Empty).signal(), "ü→x");
        assert_eq!(m.clone(), m);
    }

    #[test]
    fn debug_output_reads_like_string_fields() {
        let m = Message::new("go", Value::Int(3)).with_port("ctl");
        assert_eq!(
            format!("{m:?}"),
            "Message { signal: \"go\", value: Int(3), priority: General, port: \"ctl\", \
             sent_at: 0.0 }"
        );
    }

    #[test]
    fn banded_queue_matches_a_stable_sort_by_priority() {
        // xorshift64*: a seeded, dependency-free draw of priorities.
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut draw = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let pushed: Vec<(usize, Priority)> =
            (0..1000).map(|i| (i, Priority::ALL[(draw() % 5) as usize])).collect();
        let mut q = MessageQueue::new();
        for &(i, p) in &pushed {
            q.push(i % 7, Message::new(format!("m{i}"), Value::Int(i as i64)).with_priority(p));
        }
        assert_eq!(q.len(), 1000);
        let mut reference = pushed.clone();
        // Stable: equal priorities keep push order.
        reference.sort_by_key(|&(_, p)| std::cmp::Reverse(p));
        for &(i, p) in &reference {
            let got = q.pop().expect("queue holds every push");
            assert_eq!(got.capsule, i % 7);
            assert_eq!(got.message.value().as_int(), Some(i as i64));
            assert_eq!(got.message.priority(), p);
        }
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn queue_len_and_empty() {
        let mut q = MessageQueue::new();
        assert!(q.is_empty());
        q.push(0, Message::new("a", Value::Empty));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
