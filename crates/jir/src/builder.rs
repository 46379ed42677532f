//! Fluent construction of [`Program`]s.
//!
//! [`ProgramBuilder`] declares classes, fields, and methods; a
//! [`BodyBuilder`] (obtained per method) appends statements. Calling
//! [`ProgramBuilder::finish`] validates the program and precomputes
//! hierarchy tables.
//!
//! # Examples
//!
//! ```
//! use jir::ProgramBuilder;
//!
//! # fn main() -> Result<(), jir::JirError> {
//! let mut b = ProgramBuilder::new();
//! let object = b.object_class();
//! let a = b.declare_class("A", Some(object))?;
//! let f = b.declare_field(a, "f", b.class_type(a))?;
//!
//! let main = b.declare_static_method(a, "main", 0)?;
//! b.set_entry(main);
//! {
//!     let mut body = b.body(main);
//!     let x = body.var("x");
//!     let y = body.var("y");
//!     body.new_object(x, a);
//!     body.store(x, f, x);
//!     body.load(y, x, f);
//!     body.ret(Some(y));
//! }
//! let program = b.finish()?;
//! assert_eq!(program.class_count(), 2); // Object + A
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;

use crate::error::JirError;
use crate::ids::{AllocId, CallSiteId, CastId, ClassId, FieldId, MethodId, TypeId, VarId};
use crate::program::{
    AllocSite, CallSite, CallTarget, CastSite, Class, ClassBitSet, Field, Method, Program,
    TypeKind, Var,
};
use crate::stmt::{CallKind, Stmt};

/// Incrementally builds a [`Program`].
///
/// The builder starts with the root class (`java.lang.Object` analogue)
/// already declared; retrieve it with [`ProgramBuilder::object_class`].
#[derive(Debug)]
pub struct ProgramBuilder {
    classes: Vec<Class>,
    types: Vec<TypeKind>,
    fields: Vec<Field>,
    methods: Vec<Method>,
    vars: Vec<Var>,
    allocs: Vec<AllocSite>,
    call_sites: Vec<CallSite>,
    casts: Vec<CastSite>,
    entry: Option<MethodId>,
    object_class: ClassId,
    array_elem_field: FieldId,
    class_by_name: HashMap<String, ClassId>,
    array_type_by_elem: HashMap<TypeId, TypeId>,
}

impl Default for ProgramBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ProgramBuilder {
    /// Creates a builder with the root class already declared.
    pub fn new() -> Self {
        let object_class = ClassId::from_usize(0);
        let object_type = TypeId::from_usize(0);
        let array_elem_field = FieldId::from_usize(0);
        let mut class_by_name = HashMap::new();
        class_by_name.insert("Object".to_owned(), object_class);
        ProgramBuilder {
            classes: vec![Class {
                name: "Object".to_owned(),
                superclass: None,
                interfaces: Vec::new(),
                is_interface: false,
                is_abstract: false,
                fields: Vec::new(),
                methods: Vec::new(),
                ty: object_type,
            }],
            types: vec![TypeKind::Class(object_class)],
            fields: vec![Field {
                name: "[]".to_owned(),
                class: None,
                ty: object_type,
                is_static: false,
            }],
            methods: Vec::new(),
            vars: Vec::new(),
            allocs: Vec::new(),
            call_sites: Vec::new(),
            casts: Vec::new(),
            entry: None,
            object_class,
            array_elem_field,
            class_by_name,
            array_type_by_elem: HashMap::new(),
        }
    }

    /// Returns the root class.
    pub fn object_class(&self) -> ClassId {
        self.object_class
    }

    /// Returns the instance type of a class.
    pub fn class_type(&self, class: ClassId) -> TypeId {
        self.classes[class.index()].ty
    }

    /// Returns (interning if necessary) the array type with the given
    /// element type.
    pub fn array_type(&mut self, elem: TypeId) -> TypeId {
        if let Some(&t) = self.array_type_by_elem.get(&elem) {
            return t;
        }
        let t = TypeId::from_usize(self.types.len());
        self.types.push(TypeKind::Array { elem });
        self.array_type_by_elem.insert(elem, t);
        t
    }

    /// Looks up a previously declared class by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.class_by_name.get(name).copied()
    }

    /// Looks up a field by name across all classes (first declaration wins).
    pub fn find_field_by_name(&self, name: &str) -> Option<FieldId> {
        self.fields
            .iter()
            .position(|f| f.name == name && f.class.is_some())
            .map(FieldId::from_usize)
    }

    /// Looks up a method declared directly by `class` with the given
    /// name and arity.
    pub fn find_method(&self, class: ClassId, name: &str, arity: usize) -> Option<MethodId> {
        self.classes[class.index()]
            .methods
            .iter()
            .copied()
            .find(|&m| {
                let method = &self.methods[m.index()];
                method.name == name && method.params.len() == arity
            })
    }

    /// Declares a concrete class.
    ///
    /// # Errors
    ///
    /// Returns [`JirError::DuplicateClass`] if the name is taken.
    pub fn declare_class(
        &mut self,
        name: &str,
        superclass: Option<ClassId>,
    ) -> Result<ClassId, JirError> {
        self.declare_class_full(name, superclass, &[], false, false)
    }

    /// Declares an abstract class.
    ///
    /// # Errors
    ///
    /// Returns [`JirError::DuplicateClass`] if the name is taken.
    pub fn declare_abstract_class(
        &mut self,
        name: &str,
        superclass: Option<ClassId>,
    ) -> Result<ClassId, JirError> {
        self.declare_class_full(name, superclass, &[], false, true)
    }

    /// Declares an interface.
    ///
    /// # Errors
    ///
    /// Returns [`JirError::DuplicateClass`] if the name is taken.
    pub fn declare_interface(
        &mut self,
        name: &str,
        extends: &[ClassId],
    ) -> Result<ClassId, JirError> {
        self.declare_class_full(name, None, extends, true, true)
    }

    /// Declares a class with full control over its shape.
    ///
    /// # Errors
    ///
    /// Returns [`JirError::DuplicateClass`] if the name is taken.
    pub fn declare_class_full(
        &mut self,
        name: &str,
        superclass: Option<ClassId>,
        interfaces: &[ClassId],
        is_interface: bool,
        is_abstract: bool,
    ) -> Result<ClassId, JirError> {
        if self.class_by_name.contains_key(name) {
            return Err(JirError::DuplicateClass(name.to_owned()));
        }
        let id = ClassId::from_usize(self.classes.len());
        let ty = TypeId::from_usize(self.types.len());
        self.types.push(TypeKind::Class(id));
        let superclass = if is_interface {
            None
        } else {
            Some(superclass.unwrap_or(self.object_class))
        };
        self.classes.push(Class {
            name: name.to_owned(),
            superclass,
            interfaces: interfaces.to_vec(),
            is_interface,
            is_abstract,
            fields: Vec::new(),
            methods: Vec::new(),
            ty,
        });
        self.class_by_name.insert(name.to_owned(), id);
        Ok(id)
    }

    /// Declares an instance field.
    ///
    /// # Errors
    ///
    /// Returns [`JirError::DuplicateField`] if the class already declares
    /// a field with this name.
    pub fn declare_field(
        &mut self,
        class: ClassId,
        name: &str,
        ty: TypeId,
    ) -> Result<FieldId, JirError> {
        self.declare_field_full(class, name, ty, false)
    }

    /// Declares a static field.
    ///
    /// # Errors
    ///
    /// Returns [`JirError::DuplicateField`] if the class already declares
    /// a field with this name.
    pub fn declare_static_field(
        &mut self,
        class: ClassId,
        name: &str,
        ty: TypeId,
    ) -> Result<FieldId, JirError> {
        self.declare_field_full(class, name, ty, true)
    }

    fn declare_field_full(
        &mut self,
        class: ClassId,
        name: &str,
        ty: TypeId,
        is_static: bool,
    ) -> Result<FieldId, JirError> {
        let cls = &self.classes[class.index()];
        if cls
            .fields
            .iter()
            .any(|&f| self.fields[f.index()].name == name)
        {
            return Err(JirError::DuplicateField {
                class: cls.name.clone(),
                field: name.to_owned(),
            });
        }
        let id = FieldId::from_usize(self.fields.len());
        self.fields.push(Field {
            name: name.to_owned(),
            class: Some(class),
            ty,
            is_static,
        });
        self.classes[class.index()].fields.push(id);
        Ok(id)
    }

    /// Declares a concrete instance method with `arity` parameters; the
    /// `this` variable and parameter variables are created automatically.
    ///
    /// # Errors
    ///
    /// Returns [`JirError::DuplicateMethod`] if `(name, arity)` is taken
    /// in this class.
    pub fn declare_method(
        &mut self,
        class: ClassId,
        name: &str,
        arity: usize,
    ) -> Result<MethodId, JirError> {
        self.declare_method_full(class, name, arity, false, false)
    }

    /// Declares a static method with `arity` parameters.
    ///
    /// # Errors
    ///
    /// Returns [`JirError::DuplicateMethod`] if `(name, arity)` is taken
    /// in this class.
    pub fn declare_static_method(
        &mut self,
        class: ClassId,
        name: &str,
        arity: usize,
    ) -> Result<MethodId, JirError> {
        self.declare_method_full(class, name, arity, true, false)
    }

    /// Declares an abstract instance method (no body may be added).
    ///
    /// # Errors
    ///
    /// Returns [`JirError::DuplicateMethod`] if `(name, arity)` is taken
    /// in this class.
    pub fn declare_abstract_method(
        &mut self,
        class: ClassId,
        name: &str,
        arity: usize,
    ) -> Result<MethodId, JirError> {
        self.declare_method_full(class, name, arity, false, true)
    }

    fn declare_method_full(
        &mut self,
        class: ClassId,
        name: &str,
        arity: usize,
        is_static: bool,
        is_abstract: bool,
    ) -> Result<MethodId, JirError> {
        let cls = &self.classes[class.index()];
        if cls.methods.iter().any(|&m| {
            self.methods[m.index()].name == name && self.methods[m.index()].params.len() == arity
        }) {
            return Err(JirError::DuplicateMethod {
                class: cls.name.clone(),
                method: format!("{name}/{arity}"),
            });
        }
        let id = MethodId::from_usize(self.methods.len());
        let this = if is_static || is_abstract {
            None
        } else {
            Some(self.fresh_var("this", id))
        };
        let params = (0..arity)
            .map(|i| self.fresh_var(&format!("p{i}"), id))
            .collect();
        self.methods.push(Method {
            class,
            name: name.to_owned(),
            this,
            params,
            is_static,
            is_abstract,
            body: Vec::new(),
        });
        self.classes[class.index()].methods.push(id);
        Ok(id)
    }

    fn fresh_var(&mut self, name: &str, method: MethodId) -> VarId {
        let id = VarId::from_usize(self.vars.len());
        self.vars.push(Var {
            name: name.to_owned(),
            method,
        });
        id
    }

    /// Designates the program entry point; must be a static 0-ary method.
    pub fn set_entry(&mut self, method: MethodId) {
        self.entry = Some(method);
    }

    /// Opens a body builder for appending statements to `method`.
    ///
    /// # Panics
    ///
    /// Panics if `method` is abstract.
    pub fn body(&mut self, method: MethodId) -> BodyBuilder<'_> {
        assert!(
            !self.methods[method.index()].is_abstract,
            "cannot build a body for abstract method {method}"
        );
        BodyBuilder { b: self, method }
    }

    /// Validates the program and precomputes hierarchy tables.
    ///
    /// # Errors
    ///
    /// Returns the first validation failure; see [`JirError`] for the
    /// conditions checked.
    pub fn finish(self) -> Result<Program, JirError> {
        let entry = self.entry.ok_or(JirError::MissingEntry)?;
        let mut program = Program {
            classes: self.classes,
            types: self.types,
            fields: self.fields,
            methods: self.methods,
            vars: self.vars,
            allocs: self.allocs,
            call_sites: self.call_sites,
            casts: self.casts,
            entry,
            object_class: self.object_class,
            array_elem_field: self.array_elem_field,
            class_by_name: self.class_by_name,
            ancestors: Vec::new(),
            vtables: Vec::new(),
        };
        crate::validate::validate(&program)?;
        compute_hierarchy(&mut program)?;
        Ok(program)
    }
}

/// Appends statements to one method's body; created by
/// [`ProgramBuilder::body`].
#[derive(Debug)]
pub struct BodyBuilder<'a> {
    b: &'a mut ProgramBuilder,
    method: MethodId,
}

impl BodyBuilder<'_> {
    /// Returns the method under construction.
    pub fn method(&self) -> MethodId {
        self.method
    }

    /// Returns the `this` variable of the method, if any.
    pub fn this(&self) -> Option<VarId> {
        self.b.methods[self.method.index()].this
    }

    /// Returns the `i`-th parameter variable.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn param(&self, i: usize) -> VarId {
        self.b.methods[self.method.index()].params[i]
    }

    /// Creates a fresh local variable.
    pub fn var(&mut self, name: &str) -> VarId {
        self.b.fresh_var(name, self.method)
    }

    /// Appends `lhs = new <ty>` for an arbitrary type (class or array).
    pub fn new_of_type(&mut self, lhs: VarId, ty: TypeId) -> AllocId {
        let site = AllocId::from_usize(self.b.allocs.len());
        self.b.allocs.push(AllocSite {
            ty,
            method: self.method,
        });
        self.push(Stmt::New { lhs, site });
        site
    }

    /// Appends `lhs = new C()`.
    pub fn new_object(&mut self, lhs: VarId, class: ClassId) -> AllocId {
        let ty = self.b.class_type(class);
        self.new_of_type(lhs, ty)
    }

    /// Appends `lhs = new elem[...]`.
    pub fn new_array(&mut self, lhs: VarId, elem: TypeId) -> AllocId {
        let ty = self.b.array_type(elem);
        self.new_of_type(lhs, ty)
    }

    /// Appends `lhs = rhs`.
    pub fn assign(&mut self, lhs: VarId, rhs: VarId) {
        self.push(Stmt::Assign { lhs, rhs });
    }

    /// Appends `lhs = base.field`.
    pub fn load(&mut self, lhs: VarId, base: VarId, field: FieldId) {
        self.push(Stmt::Load { lhs, base, field });
    }

    /// Appends `base.field = rhs`.
    pub fn store(&mut self, base: VarId, field: FieldId, rhs: VarId) {
        self.push(Stmt::Store { base, field, rhs });
    }

    /// Appends `lhs = array[*]` (index-insensitive array load).
    pub fn array_load(&mut self, lhs: VarId, array: VarId) {
        let field = self.b.array_elem_field;
        self.push(Stmt::Load {
            lhs,
            base: array,
            field,
        });
    }

    /// Appends `array[*] = rhs` (index-insensitive array store).
    pub fn array_store(&mut self, array: VarId, rhs: VarId) {
        let field = self.b.array_elem_field;
        self.push(Stmt::Store {
            base: array,
            field,
            rhs,
        });
    }

    /// Appends `lhs = C.field`.
    pub fn static_load(&mut self, lhs: VarId, field: FieldId) {
        self.push(Stmt::StaticLoad { lhs, field });
    }

    /// Appends `C.field = rhs`.
    pub fn static_store(&mut self, field: FieldId, rhs: VarId) {
        self.push(Stmt::StaticStore { field, rhs });
    }

    /// Appends `lhs = (ty) rhs`.
    pub fn cast(&mut self, lhs: VarId, ty: TypeId, rhs: VarId) -> CastId {
        let site = CastId::from_usize(self.b.casts.len());
        self.b.casts.push(CastSite {
            target_ty: ty,
            method: self.method,
        });
        self.push(Stmt::Cast { lhs, rhs, site });
        site
    }

    /// Appends a virtual call `result = recv.name(args...)`.
    pub fn virtual_call(
        &mut self,
        result: Option<VarId>,
        recv: VarId,
        name: &str,
        args: &[VarId],
    ) -> CallSiteId {
        self.push_call(
            CallKind::Virtual { recv },
            CallTarget::Signature {
                name: name.to_owned(),
                arity: args.len(),
            },
            args,
            result,
        )
    }

    /// Appends a special (statically bound, receiver-passing) call.
    pub fn special_call(
        &mut self,
        result: Option<VarId>,
        recv: VarId,
        target: MethodId,
        args: &[VarId],
    ) -> CallSiteId {
        self.push_call(
            CallKind::Special { recv },
            CallTarget::Exact(target),
            args,
            result,
        )
    }

    /// Appends a static call `result = C.name(args...)`.
    pub fn static_call(
        &mut self,
        result: Option<VarId>,
        target: MethodId,
        args: &[VarId],
    ) -> CallSiteId {
        self.push_call(CallKind::Static, CallTarget::Exact(target), args, result)
    }

    fn push_call(
        &mut self,
        kind: CallKind,
        target: CallTarget,
        args: &[VarId],
        result: Option<VarId>,
    ) -> CallSiteId {
        let site = CallSiteId::from_usize(self.b.call_sites.len());
        self.b.call_sites.push(CallSite {
            kind,
            target,
            args: args.to_vec(),
            result,
            method: self.method,
        });
        self.push(Stmt::Call(site));
        site
    }

    /// Appends `return value`.
    pub fn ret(&mut self, value: Option<VarId>) {
        self.push(Stmt::Return { value });
    }

    fn push(&mut self, stmt: Stmt) {
        self.b.methods[self.method.index()].body.push(stmt);
    }
}

/// Computes ancestor bitsets and vtables; detects hierarchy cycles.
fn compute_hierarchy(program: &mut Program) -> Result<(), JirError> {
    let n = program.classes.len();
    // Topological order over (superclass + interfaces) edges.
    let mut order = Vec::with_capacity(n);
    let mut state = vec![0u8; n]; // 0 = unvisited, 1 = on stack, 2 = done
    for start in 0..n {
        if state[start] != 0 {
            continue;
        }
        // Iterative DFS.
        let mut stack = vec![(start, 0usize)];
        state[start] = 1;
        while let Some(top) = stack.last_mut() {
            let (c, i) = (top.0, top.1);
            let supers = class_supers(program, ClassId::from_usize(c));
            if i < supers.len() {
                let next = supers[i].index();
                top.1 += 1;
                match state[next] {
                    0 => {
                        state[next] = 1;
                        stack.push((next, 0));
                    }
                    1 => {
                        return Err(JirError::CyclicHierarchy(
                            program.classes[next].name.clone(),
                        ));
                    }
                    _ => {}
                }
            } else {
                state[c] = 2;
                order.push(c);
                stack.pop();
            }
        }
    }

    // Ancestor bitsets, in topological order (supers before subs).
    let mut ancestors: Vec<ClassBitSet> = vec![ClassBitSet::with_capacity(n); n];
    for &c in &order {
        let id = ClassId::from_usize(c);
        let mut set = ClassBitSet::with_capacity(n);
        set.insert(id);
        for sup in class_supers(program, id) {
            set.union_with(&ancestors[sup.index()]);
        }
        ancestors[c] = set;
    }

    // Vtables: inherit the superclass table, then overwrite with own
    // concrete methods. Each table is sorted by signature (see
    // `Program::vtables`).
    let mut vtables: Vec<Vec<MethodId>> = vec![Vec::new(); n];
    for &c in &order {
        let mut table = match program.classes[c].superclass {
            Some(sup) => vtables[sup.index()].clone(),
            None => Vec::new(),
        };
        for &m in &program.classes[c].methods {
            let method = &program.methods[m.index()];
            if !method.is_abstract && !method.is_static {
                let sig = (method.name.as_str(), method.params.len());
                match table.binary_search_by(|&t| program.signature(t).cmp(&sig)) {
                    Ok(at) => table[at] = m,
                    Err(at) => table.insert(at, m),
                }
            }
        }
        vtables[c] = table;
    }

    program.ancestors = ancestors;
    program.vtables = vtables;
    Ok(())
}

fn class_supers(program: &Program, c: ClassId) -> Vec<ClassId> {
    let cls = &program.classes[c.index()];
    let mut out = Vec::with_capacity(1 + cls.interfaces.len());
    if let Some(s) = cls.superclass {
        out.push(s);
    }
    out.extend_from_slice(&cls.interfaces);
    out
}
