use crate::library::{CellTypeId, Library};
use crate::NetlistError;
use serde::Serialize;
use std::collections::HashMap;
use std::sync::Arc;

/// A signal source: either a primary input or a gate output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Signal {
    /// Primary input `n`.
    Input(u32),
    /// Output of gate `n`.
    Gate(u32),
}

/// One gate instance: a cell type plus its input connections.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Gate {
    /// Cell type within the netlist's library.
    pub cell: CellTypeId,
    /// Input connections, one per cell pin.
    pub inputs: Vec<Signal>,
}

/// Aggregate statistics of a netlist — the quantities Table I of the paper
/// is calibrated against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct NetlistStats {
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Number of gates.
    pub gates: usize,
    /// Total pin connections `Σ fan-in` — the `Eo` column of Table I.
    pub pin_connections: usize,
    /// Longest input-to-output path measured in gates.
    pub logic_depth: usize,
}

/// A combinational gate-level netlist, acyclic by construction.
///
/// Gates are stored in topological order: the [`NetlistBuilder`] only lets
/// a gate reference signals that already exist, so index order *is* a valid
/// evaluation order. This invariant is what makes simulation and timing
/// analysis single-pass.
#[derive(Debug, Clone, Serialize)]
pub struct Netlist {
    name: String,
    #[serde(skip)]
    library: Arc<Library>,
    n_inputs: usize,
    gates: Vec<Gate>,
    outputs: Vec<Signal>,
}

impl Netlist {
    /// Starts building a netlist with `n_inputs` primary inputs.
    pub fn builder(
        name: impl Into<String>,
        library: Arc<Library>,
        n_inputs: usize,
    ) -> NetlistBuilder {
        NetlistBuilder {
            name: name.into(),
            library,
            n_inputs,
            gates: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Netlist name (e.g. `"c432"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the same netlist under a different name.
    pub fn renamed(mut self, name: impl Into<String>) -> Netlist {
        self.name = name.into();
        self
    }

    /// The cell library this netlist is mapped to.
    pub fn library(&self) -> &Arc<Library> {
        &self.library
    }

    /// Number of primary inputs.
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// Number of primary outputs.
    pub fn n_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of gates.
    pub fn n_gates(&self) -> usize {
        self.gates.len()
    }

    /// The gates, in topological order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Gate `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn gate(&self, i: usize) -> &Gate {
        &self.gates[i]
    }

    /// The signals driving each primary output.
    pub fn outputs(&self) -> &[Signal] {
        &self.outputs
    }

    /// Total pin connections `Σ fan-in` (the paper's `Eo`).
    pub fn pin_connection_count(&self) -> usize {
        self.gates.iter().map(|g| g.inputs.len()).sum()
    }

    /// Flat index of a signal into `[inputs..., gates...]` arrays.
    pub fn signal_index(&self, s: Signal) -> usize {
        match s {
            Signal::Input(i) => i as usize,
            Signal::Gate(g) => self.n_inputs + g as usize,
        }
    }

    /// Logic depth (gates on the longest input-to-output path).
    pub fn logic_depth(&self) -> usize {
        let mut depth = vec![0usize; self.n_inputs + self.gates.len()];
        for (gi, g) in self.gates.iter().enumerate() {
            let d = g
                .inputs
                .iter()
                .map(|&s| depth[self.signal_index(s)])
                .max()
                .unwrap_or(0);
            depth[self.n_inputs + gi] = d + 1;
        }
        self.outputs
            .iter()
            .map(|&s| depth[self.signal_index(s)])
            .max()
            .unwrap_or(0)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> NetlistStats {
        NetlistStats {
            inputs: self.n_inputs,
            outputs: self.outputs.len(),
            gates: self.gates.len(),
            pin_connections: self.pin_connection_count(),
            logic_depth: self.logic_depth(),
        }
    }

    /// Gate count per cell-type name.
    pub fn cell_usage(&self) -> HashMap<String, usize> {
        let mut usage = HashMap::new();
        for g in &self.gates {
            *usage
                .entry(self.library.cell(g.cell).name().to_owned())
                .or_insert(0) += 1;
        }
        usage
    }

    /// Checks structural invariants beyond what construction guarantees:
    /// every primary input feeds at least one gate, and every gate either
    /// fans out or drives a primary output.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`NetlistError`].
    pub fn validate(&self) -> Result<(), NetlistError> {
        if self.gates.is_empty() || self.outputs.is_empty() {
            return Err(NetlistError::Empty);
        }
        let mut used = vec![false; self.n_inputs + self.gates.len()];
        for g in &self.gates {
            for &s in &g.inputs {
                used[self.signal_index(s)] = true;
            }
        }
        for &s in &self.outputs {
            used[self.signal_index(s)] = true;
        }
        if let Some(i) = used[..self.n_inputs].iter().position(|&u| !u) {
            return Err(NetlistError::UnusedInput { input: i });
        }
        if let Some(g) = used[self.n_inputs..].iter().position(|&u| !u) {
            return Err(NetlistError::DanglingGate { gate: g });
        }
        Ok(())
    }
}

/// Incremental netlist builder that enforces acyclicity: a gate can only
/// consume signals that already exist, so the gate list is topologically
/// ordered by construction.
///
/// # Example
///
/// ```
/// use ssta_netlist::{library::library_90nm, Netlist, Signal};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), ssta_netlist::NetlistError> {
/// let lib = Arc::new(library_90nm());
/// let mut b = Netlist::builder("demo", lib, 2);
/// let x = b.add_gate_by_name("NAND2", &[Signal::Input(0), Signal::Input(1)])?;
/// let y = b.add_gate_by_name("INV", &[x])?;
/// b.add_output(y)?;
/// let netlist = b.finish()?;
/// assert_eq!(netlist.n_gates(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct NetlistBuilder {
    name: String,
    library: Arc<Library>,
    n_inputs: usize,
    gates: Vec<Gate>,
    outputs: Vec<Signal>,
}

impl NetlistBuilder {
    /// Number of gates added so far.
    pub fn n_gates(&self) -> usize {
        self.gates.len()
    }

    /// Number of primary inputs.
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// The library used for cell lookups.
    pub fn library(&self) -> &Arc<Library> {
        &self.library
    }

    /// Checks that a signal refers to an existing input or gate.
    fn check_signal(&self, s: Signal, context: &str) -> Result<(), NetlistError> {
        let ok = match s {
            Signal::Input(i) => (i as usize) < self.n_inputs,
            Signal::Gate(g) => (g as usize) < self.gates.len(),
        };
        if ok {
            Ok(())
        } else {
            Err(NetlistError::InvalidSignal {
                context: format!("{context}: {s:?}"),
            })
        }
    }

    /// Adds a gate and returns the signal of its output.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::ArityMismatch`] if `inputs.len()` differs from the
    ///   cell's arity.
    /// * [`NetlistError::InvalidSignal`] if an input refers to a gate that
    ///   has not been created yet (this is what forbids cycles).
    pub fn add_gate(
        &mut self,
        cell: CellTypeId,
        inputs: &[Signal],
    ) -> Result<Signal, NetlistError> {
        let ct = self.library.cell(cell);
        if ct.arity() != inputs.len() {
            return Err(NetlistError::ArityMismatch {
                cell: ct.name().to_owned(),
                expected: ct.arity(),
                found: inputs.len(),
            });
        }
        for &s in inputs {
            self.check_signal(s, "gate input")?;
        }
        let id = self.gates.len() as u32;
        self.gates.push(Gate {
            cell,
            inputs: inputs.to_vec(),
        });
        Ok(Signal::Gate(id))
    }

    /// Adds a gate, looking the cell up by name.
    ///
    /// # Errors
    ///
    /// As [`add_gate`](Self::add_gate), plus [`NetlistError::UnknownCell`].
    pub fn add_gate_by_name(
        &mut self,
        cell_name: &str,
        inputs: &[Signal],
    ) -> Result<Signal, NetlistError> {
        let id = self.library.find(cell_name)?;
        self.add_gate(id, inputs)
    }

    /// Marks a signal as a primary output.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidSignal`] for out-of-range signals.
    pub fn add_output(&mut self, s: Signal) -> Result<(), NetlistError> {
        self.check_signal(s, "primary output")?;
        self.outputs.push(s);
        Ok(())
    }

    /// Fan-in count (arity) of gate `gate`.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is out of range.
    pub fn gate_arity(&self, gate: usize) -> usize {
        self.gates[gate].inputs.len()
    }

    /// Current source of input pin `pin` of gate `gate`.
    ///
    /// # Panics
    ///
    /// Panics if `gate` or `pin` is out of range.
    pub fn gate_input(&self, gate: usize, pin: usize) -> Signal {
        self.gates[gate].inputs[pin]
    }

    /// Replaces input pin `pin` of gate `gate` with a new source signal.
    ///
    /// Only *earlier* signals are accepted so the topological invariant is
    /// preserved. Generators use this to attach otherwise-unused inputs.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidSignal`] if the gate or pin does not
    /// exist, or if the new source would not precede the gate.
    pub fn rewire_input(
        &mut self,
        gate: usize,
        pin: usize,
        new_source: Signal,
    ) -> Result<(), NetlistError> {
        if gate >= self.gates.len() || pin >= self.gates[gate].inputs.len() {
            return Err(NetlistError::InvalidSignal {
                context: format!("rewire target gate {gate} pin {pin}"),
            });
        }
        let precedes = match new_source {
            Signal::Input(i) => (i as usize) < self.n_inputs,
            Signal::Gate(g) => (g as usize) < gate,
        };
        if !precedes {
            return Err(NetlistError::InvalidSignal {
                context: format!("rewire source {new_source:?} does not precede gate {gate}"),
            });
        }
        self.gates[gate].inputs[pin] = new_source;
        Ok(())
    }

    /// Finalizes the netlist.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Empty`] when no gates or outputs exist.
    pub fn finish(self) -> Result<Netlist, NetlistError> {
        if self.gates.is_empty() || self.outputs.is_empty() {
            return Err(NetlistError::Empty);
        }
        Ok(Netlist {
            name: self.name,
            library: self.library,
            n_inputs: self.n_inputs,
            gates: self.gates,
            outputs: self.outputs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::library_90nm;

    fn lib() -> Arc<Library> {
        Arc::new(library_90nm())
    }

    fn tiny() -> Netlist {
        let mut b = Netlist::builder("tiny", lib(), 3);
        let g0 = b
            .add_gate_by_name("NAND2", &[Signal::Input(0), Signal::Input(1)])
            .unwrap();
        let g1 = b.add_gate_by_name("INV", &[Signal::Input(2)]).unwrap();
        let g2 = b.add_gate_by_name("NOR2", &[g0, g1]).unwrap();
        b.add_output(g2).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn builder_produces_expected_shape() {
        let n = tiny();
        assert_eq!(n.n_inputs(), 3);
        assert_eq!(n.n_gates(), 3);
        assert_eq!(n.n_outputs(), 1);
        assert_eq!(n.pin_connection_count(), 5);
        assert_eq!(n.logic_depth(), 2);
        n.validate().unwrap();
    }

    #[test]
    fn stats_aggregate_matches_parts() {
        let n = tiny();
        let s = n.stats();
        assert_eq!(s.gates, 3);
        assert_eq!(s.pin_connections, 5);
        assert_eq!(s.logic_depth, 2);
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let mut b = Netlist::builder("bad", lib(), 2);
        let err = b
            .add_gate_by_name("NAND2", &[Signal::Input(0)])
            .unwrap_err();
        assert!(matches!(err, NetlistError::ArityMismatch { .. }));
    }

    #[test]
    fn forward_reference_is_rejected() {
        let mut b = Netlist::builder("bad", lib(), 1);
        // Gate 5 does not exist yet.
        let err = b.add_gate_by_name("INV", &[Signal::Gate(5)]).unwrap_err();
        assert!(matches!(err, NetlistError::InvalidSignal { .. }));
    }

    #[test]
    fn empty_netlist_is_rejected() {
        let b = Netlist::builder("empty", lib(), 1);
        assert!(matches!(b.finish(), Err(NetlistError::Empty)));
    }

    #[test]
    fn validate_detects_unused_input() {
        let mut b = Netlist::builder("u", lib(), 2);
        let g = b.add_gate_by_name("INV", &[Signal::Input(0)]).unwrap();
        b.add_output(g).unwrap();
        let n = b.finish().unwrap();
        assert!(matches!(
            n.validate(),
            Err(NetlistError::UnusedInput { input: 1 })
        ));
    }

    #[test]
    fn validate_detects_dangling_gate() {
        let mut b = Netlist::builder("d", lib(), 1);
        let g0 = b.add_gate_by_name("INV", &[Signal::Input(0)]).unwrap();
        let _g1 = b.add_gate_by_name("INV", &[g0]).unwrap(); // dangles
        b.add_output(g0).unwrap();
        let n = b.finish().unwrap();
        assert!(matches!(
            n.validate(),
            Err(NetlistError::DanglingGate { gate: 1 })
        ));
    }

    #[test]
    fn rewire_respects_topological_order() {
        let mut b = Netlist::builder("r", lib(), 2);
        let g0 = b
            .add_gate_by_name("NAND2", &[Signal::Input(0), Signal::Input(0)])
            .unwrap();
        let _g1 = b.add_gate_by_name("INV", &[g0]).unwrap();
        // Attach the unused input 1 to gate 0 pin 1: fine.
        b.rewire_input(0, 1, Signal::Input(1)).unwrap();
        // Rewiring gate 0 to consume gate 1 would create a cycle: rejected.
        assert!(b.rewire_input(0, 0, Signal::Gate(1)).is_err());
    }

    #[test]
    fn cell_usage_counts_types() {
        let n = tiny();
        let usage = n.cell_usage();
        assert_eq!(usage["NAND2"], 1);
        assert_eq!(usage["INV"], 1);
        assert_eq!(usage["NOR2"], 1);
    }
}
