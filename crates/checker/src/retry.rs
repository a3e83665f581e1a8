//! Supervised retry: one second chance on fresh resources.
//!
//! A panicking sweep cell and a panicking `ccserve` check job each get
//! exactly one retry, at once: a panic is not a transient overload, so a
//! backoff would only delay the answer.  [`retry_once`] runs the attempt
//! closure under `catch_unwind` with attempt index 0, and, if that
//! panicked, once more with index 1, so the caller runs the retry on fresh
//! resources (a checker whose check panicked must not serve the retry).
//! [`panic_message`] renders a panic payload for the failure record.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs `attempt(0)`, and `attempt(1)` if that panicked.  Returns the value
/// of the first attempt that did not panic, or the rendered payload of the
/// second panic.
pub fn retry_once<T>(mut attempt: impl FnMut(usize) -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(|| attempt(0)))
        .or_else(|_| catch_unwind(AssertUnwindSafe(|| attempt(1))))
        .map_err(|payload| panic_message(payload.as_ref()))
}

/// Renders a panic payload: its `&str` or `String` message, or a marker
/// for any other payload type.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_success_returns_immediately() {
        let mut calls = 0;
        let out = retry_once(|i| {
            calls += 1;
            assert_eq!(i, 0);
            42
        });
        assert_eq!(out, Ok(42));
        assert_eq!(calls, 1);
    }

    #[test]
    fn retries_pass_the_attempt_index_and_stop_at_the_cap() {
        let mut seen = Vec::new();
        let out: Result<(), String> = retry_once(|i| {
            seen.push(i);
            panic!("attempt {i} failed")
        });
        assert_eq!(seen, vec![0, 1]);
        assert_eq!(out, Err("attempt 1 failed".to_string()));
    }

    #[test]
    fn later_attempt_can_recover() {
        let out = retry_once(|i| {
            if i == 0 {
                panic!("not yet");
            }
            i
        });
        assert_eq!(out, Ok(1));
    }

    #[test]
    fn panic_payloads_render_one_way() {
        assert_eq!(panic_message(&"static"), "static");
        assert_eq!(panic_message(&"owned".to_string()), "owned");
        assert_eq!(panic_message(&7u32), "non-string panic payload");
    }
}
