//! Linear support vector machines for the rtped workspace.
//!
//! The paper trains its pedestrian model offline with LibLinear (§4:
//! "training a linear SVM with the extracted HOG features in LibLinear")
//! and evaluates `y(x) = w·x + b` in hardware (§3.2, eq. 4). This crate
//! provides both sides from scratch:
//!
//! - [`model::LinearSvm`]: the weight vector + bias with the decision rule
//!   of eqs. 4–6.
//! - [`dcd`]: dual coordinate descent for the L2-regularized L1-loss SVM —
//!   the same optimizer family LibLinear uses for `-s 3`.
//! - [`platt`]: Platt calibration of decision scores into probabilities.
//! - [`io`]: JSON persistence mirroring the paper's offline-trained model
//!   memory.
//!
//! # Example
//!
//! ```
//! use rtped_svm::dcd::{DcdParams, train_dcd};
//! use rtped_svm::model::Label;
//!
//! // A linearly separable toy problem in 2-D.
//! let samples = vec![
//!     (vec![2.0, 0.5], Label::Positive),
//!     (vec![1.5, 1.0], Label::Positive),
//!     (vec![-1.0, -0.5], Label::Negative),
//!     (vec![-2.0, -1.5], Label::Negative),
//! ];
//! let model = train_dcd(&samples, &DcdParams::default());
//! assert!(model.decision(&[2.0, 1.0]) > 0.0);
//! assert!(model.decision(&[-2.0, -1.0]) < 0.0);
//! ```

pub mod dcd;
pub mod io;
pub mod model;
pub mod platt;
pub mod quant;

pub use model::{Label, LinearSvm};
pub use quant::QuantModel;
