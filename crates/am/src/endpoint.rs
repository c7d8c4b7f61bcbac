//! The handle-based send surface: a per-call [`Endpoint`] handle obtained
//! from [`endpoint`], with a typed builder for sends, so each option (bulk
//! payload, token, coalescing) is a named call rather than a position:
//!
//! ```ignore
//! let ep = am::endpoint(&ctx);
//! ep.to(dst).handler(H_X).args([a, 0, 0, 0]).send();
//! ep.to(dst).handler(H_Y).token(Box::new(cell)).send();
//! ep.to(dst).handler(H_Z).bulk(bytes).send();
//! ```
//!
//! The builder is the sole send API. The endpoint is generic over the
//! [`Fabric`] carrying it, so the same runtime code drives both the
//! simulator and the wall-clock backend.

use crate::ops;
use crate::state::HandlerId;
use crate::Token;
use bytes::Bytes;
use mpmd_fabric::Fabric;

/// A handle on this node's Active-Message endpoint. Cheap to construct (it
/// borrows the task context); obtain one per scope with [`endpoint`].
pub struct Endpoint<'c, F: Fabric> {
    ctx: &'c F,
}

impl<F: Fabric> Clone for Endpoint<'_, F> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<F: Fabric> Copy for Endpoint<'_, F> {}

/// This node's endpoint, as seen from the calling task.
pub fn endpoint<F: Fabric>(ctx: &F) -> Endpoint<'_, F> {
    Endpoint { ctx }
}

impl<'c, F: Fabric> Endpoint<'c, F> {
    /// Start building a send to `dst`.
    pub fn to(&self, dst: usize) -> SendBuilder<'c, F> {
        SendBuilder {
            ctx: self.ctx,
            dst,
            handler: None,
            args: [0; 4],
            data: None,
            token: None,
        }
    }

    /// Drain the inbox (see [`poll`](crate::poll)).
    pub fn poll(&self) -> usize {
        ops::poll(self.ctx)
    }

    /// Spin-poll until `pred` holds (see [`wait_until`](crate::wait_until)).
    pub fn wait_until(&self, pred: impl FnMut() -> bool) {
        ops::wait_until(self.ctx, pred)
    }

    /// Flush all aggregation buffers (see [`flush`](crate::flush)).
    pub fn flush(&self) {
        ops::flush(self.ctx)
    }

    /// This node's id.
    pub fn node(&self) -> usize {
        self.ctx.node()
    }

    /// Number of nodes in the machine.
    pub fn nodes(&self) -> usize {
        self.ctx.nodes()
    }
}

/// An in-progress send. Set the handler (mandatory) and any of the argument
/// words, a bulk payload, or a continuation token, then call
/// [`send`](SendBuilder::send).
#[must_use = "a send builder does nothing until .send() is called"]
pub struct SendBuilder<'c, F: Fabric> {
    ctx: &'c F,
    dst: usize,
    handler: Option<HandlerId>,
    args: [u64; 4],
    data: Option<Bytes>,
    token: Option<Token>,
}

impl<F: Fabric> SendBuilder<'_, F> {
    /// Destination handler id (mandatory).
    pub fn handler(mut self, h: HandlerId) -> Self {
        self.handler = Some(h);
        self
    }

    /// The four 64-bit argument words.
    pub fn args(mut self, args: [u64; 4]) -> Self {
        self.args = args;
        self
    }

    /// Bulk payload: the send becomes a bulk transfer (bulk setup overhead,
    /// per-byte wire time, never coalesced).
    pub fn bulk(mut self, data: Bytes) -> Self {
        self.data = Some(data);
        self
    }

    /// Opaque continuation carried to the handler (accepts a bare `Token`
    /// or an `Option<Token>` forwarded from a received message).
    pub fn token(mut self, token: impl Into<Option<Token>>) -> Self {
        self.token = token.into();
        self
    }

    /// Issue the send. Panics if no handler was set.
    pub fn send(self) {
        let handler = self
            .handler
            .expect("send builder used without .handler(..)");
        ops::send_inner(
            self.ctx, self.dst, handler, self.args, self.data, self.token,
        );
    }
}
