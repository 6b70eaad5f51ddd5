//! Trainable parameters.

use mpt_tensor::Tensor;
use std::cell::{Ref, RefCell, RefMut};
use std::fmt;
use std::rc::Rc;

/// Inner storage of a parameter: FP32 master value and accumulated
/// gradient.
#[derive(Debug)]
struct ParamData {
    value: Tensor,
    grad: Tensor,
}

/// A trainable tensor shared between a layer and the optimizer.
///
/// Cloning a `Parameter` clones the *handle*, not the data — the paper
/// stores weights "in full precision" master copies and quantizes on
/// use, and this type is that master copy.
///
/// # Example
///
/// ```
/// use mpt_nn::Parameter;
/// use mpt_tensor::Tensor;
///
/// let p = Parameter::new("w", Tensor::zeros(vec![2, 2]));
/// p.value_mut().data_mut()[0] = 1.0;
/// assert_eq!(p.value().data()[0], 1.0);
/// assert_eq!(p.name(), "w");
/// ```
#[derive(Clone)]
pub struct Parameter {
    name: Rc<str>,
    data: Rc<RefCell<ParamData>>,
}

impl Parameter {
    /// Creates a parameter with the given debug name and initial
    /// value; the gradient starts at zero.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().to_vec());
        Parameter {
            name: Rc::from(name.into()),
            data: Rc::new(RefCell::new(ParamData { value, grad })),
        }
    }

    /// The parameter's debug name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Borrow of the FP32 master value.
    ///
    /// # Panics
    ///
    /// Panics if the value is mutably borrowed.
    pub fn value(&self) -> Ref<'_, Tensor> {
        Ref::map(self.data.borrow(), |d| &d.value)
    }

    /// Mutable borrow of the FP32 master value.
    ///
    /// # Panics
    ///
    /// Panics if the value is already borrowed.
    pub fn value_mut(&self) -> RefMut<'_, Tensor> {
        RefMut::map(self.data.borrow_mut(), |d| &mut d.value)
    }

    /// Borrow of the accumulated gradient.
    ///
    /// # Panics
    ///
    /// Panics if the gradient is mutably borrowed.
    pub fn grad(&self) -> Ref<'_, Tensor> {
        Ref::map(self.data.borrow(), |d| &d.grad)
    }

    /// Mutable borrow of the accumulated gradient.
    ///
    /// # Panics
    ///
    /// Panics if the gradient is already borrowed.
    pub fn grad_mut(&self) -> RefMut<'_, Tensor> {
        RefMut::map(self.data.borrow_mut(), |d| &mut d.grad)
    }

    /// Mutable borrows of the FP32 master value and the gradient at
    /// once (the optimizer's update reads one while writing the
    /// other).
    ///
    /// # Panics
    ///
    /// Panics if the value or the gradient is already borrowed.
    pub fn value_and_grad_mut(&self) -> (RefMut<'_, Tensor>, RefMut<'_, Tensor>) {
        RefMut::map_split(self.data.borrow_mut(), |d| (&mut d.value, &mut d.grad))
    }

    /// Adds `delta` into the accumulated gradient.
    ///
    /// # Panics
    ///
    /// Panics if `delta`'s shape differs from the parameter's.
    pub fn accumulate_grad(&self, delta: &Tensor) {
        self.grad_mut()
            .add_assign(delta)
            .expect("gradient shape matches parameter");
    }

    /// Resets the gradient to zero.
    pub fn zero_grad(&self) {
        let mut g = self.grad_mut();
        for v in g.data_mut() {
            *v = 0.0;
        }
    }

    /// Number of scalar elements.
    pub fn numel(&self) -> usize {
        self.value().numel()
    }

    /// `true` if the two handles share storage.
    pub fn ptr_eq(&self, other: &Parameter) -> bool {
        Rc::ptr_eq(&self.data, &other.data)
    }

    /// A stable identity for this parameter's storage (used by
    /// optimizers to key per-parameter state).
    pub fn id(&self) -> usize {
        Rc::as_ptr(&self.data) as usize
    }
}

impl fmt::Debug for Parameter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Parameter({}, shape={:?})",
            self.name,
            self.value().shape()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_storage() {
        let p = Parameter::new("w", Tensor::zeros(vec![2]));
        let q = p.clone();
        q.value_mut().data_mut()[1] = 5.0;
        assert_eq!(p.value().data()[1], 5.0);
        assert!(p.ptr_eq(&q));
    }

    #[test]
    fn value_and_grad_borrow_together() {
        let p = Parameter::new("w", Tensor::zeros(vec![2]));
        p.accumulate_grad(&Tensor::from_vec(vec![2], vec![1.0, 2.0]).unwrap());
        {
            let (mut v, g) = p.value_and_grad_mut();
            v.data_mut()[1] = g.data()[1] * 3.0;
        }
        assert_eq!(p.value().data(), &[0.0, 6.0]);
        assert_eq!(p.grad().data(), &[1.0, 2.0]);
    }

    #[test]
    fn grad_accumulates_and_zeroes() {
        let p = Parameter::new("w", Tensor::zeros(vec![2]));
        let d = Tensor::from_vec(vec![2], vec![1.0, 2.0]).unwrap();
        p.accumulate_grad(&d);
        p.accumulate_grad(&d);
        assert_eq!(p.grad().data(), &[2.0, 4.0]);
        p.zero_grad();
        assert_eq!(p.grad().data(), &[0.0, 0.0]);
    }

    #[test]
    fn debug_includes_name_and_shape() {
        let p = Parameter::new("conv1.weight", Tensor::zeros(vec![4, 3]));
        let s = format!("{p:?}");
        assert!(s.contains("conv1.weight"));
        assert!(s.contains("[4, 3]"));
    }

    #[test]
    #[should_panic(expected = "gradient shape matches parameter")]
    fn accumulate_validates_shape() {
        let p = Parameter::new("w", Tensor::zeros(vec![2]));
        p.accumulate_grad(&Tensor::zeros(vec![3]));
    }
}
