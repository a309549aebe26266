//! Return address stack: call targets are pushed at calls, predicted at
//! returns. A fixed-depth circular stack, as hardware RASes are.

/// Depth of the modelled core's return address stack.
pub const RAS_DEPTH: usize = 32;

/// A circular return address stack.
///
/// ```
/// use pipeline::ReturnAddressStack;
///
/// let mut ras = ReturnAddressStack::new(4);
/// ras.push(0x1004);
/// ras.push(0x2004);
/// assert_eq!(ras.pop(), Some(0x2004));
/// assert_eq!(ras.pop(), Some(0x1004));
/// assert_eq!(ras.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct ReturnAddressStack {
    slots: Vec<u64>,
    top: usize,
    /// Live entries (at most the capacity).
    depth: usize,
}

impl ReturnAddressStack {
    /// Creates a RAS with `capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RAS needs capacity");
        ReturnAddressStack {
            slots: vec![0; capacity],
            top: 0,
            depth: 0,
        }
    }

    /// Pushes a return address (the instruction after a call). Overwrites
    /// the oldest entry when full, as a circular hardware stack does.
    pub fn push(&mut self, return_address: u64) {
        self.top = (self.top + 1) % self.slots.len();
        self.slots[self.top] = return_address;
        self.depth = (self.depth + 1).min(self.slots.len());
    }

    /// Pops the predicted return target, or `None` when empty.
    pub fn pop(&mut self) -> Option<u64> {
        if self.depth == 0 {
            return None;
        }
        let v = self.slots[self.top];
        self.top = (self.top + self.slots.len() - 1) % self.slots.len();
        self.depth -= 1;
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut ras = ReturnAddressStack::new(8);
        for v in [1u64, 2, 3] {
            ras.push(v);
        }
        assert_eq!(ras.pop(), Some(3));
        assert_eq!(ras.pop(), Some(2));
        assert_eq!(ras.pop(), Some(1));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn overflow_wraps_and_loses_the_oldest() {
        let mut ras = ReturnAddressStack::new(2);
        ras.push(1);
        ras.push(2);
        ras.push(3); // overwrites 1
        assert_eq!(ras.pop(), Some(3));
        assert_eq!(ras.pop(), Some(2));
        assert_eq!(ras.pop(), None, "oldest entry was overwritten");
    }

    #[test]
    fn interleaved_push_pop_is_consistent() {
        let mut ras = ReturnAddressStack::new(4);
        ras.push(10);
        ras.push(20);
        assert_eq!(ras.pop(), Some(20));
        ras.push(30);
        assert_eq!(ras.pop(), Some(30));
        assert_eq!(ras.pop(), Some(10));
        assert_eq!(ras.pop(), None);
    }
}
