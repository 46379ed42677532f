//! The whole-program representation: arenas of classes, types, fields,
//! methods, variables, allocation sites, call sites, and cast sites, plus
//! precomputed class-hierarchy queries (subtyping and virtual dispatch).

use std::collections::HashMap;
use std::fmt;

use crate::ids::{AllocId, CallSiteId, CastId, ClassId, FieldId, MethodId, TypeId, VarId};
use crate::stmt::{CallKind, Stmt};

/// A reference type in the program: either a class/interface type or an
/// array type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TypeKind {
    /// The type of instances of a class or interface.
    Class(ClassId),
    /// An array type with the given element type (`elem[]`).
    Array {
        /// The element type.
        elem: TypeId,
    },
}

/// A class or interface declaration.
#[derive(Clone, Debug)]
pub struct Class {
    pub(crate) name: String,
    pub(crate) superclass: Option<ClassId>,
    pub(crate) interfaces: Vec<ClassId>,
    pub(crate) is_interface: bool,
    pub(crate) is_abstract: bool,
    pub(crate) fields: Vec<FieldId>,
    pub(crate) methods: Vec<MethodId>,
    pub(crate) ty: TypeId,
}

impl Class {
    /// Returns the fully qualified class name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the direct superclass, or `None` for the root class.
    pub fn superclass(&self) -> Option<ClassId> {
        self.superclass
    }

    /// Returns the directly implemented interfaces.
    pub fn interfaces(&self) -> &[ClassId] {
        &self.interfaces
    }

    /// Returns `true` if this declaration is an interface.
    pub fn is_interface(&self) -> bool {
        self.is_interface
    }

    /// Returns `true` if this class cannot be instantiated.
    pub fn is_abstract(&self) -> bool {
        self.is_abstract || self.is_interface
    }

    /// Returns the fields declared directly by this class.
    pub fn fields(&self) -> &[FieldId] {
        &self.fields
    }

    /// Returns the methods declared directly by this class.
    pub fn methods(&self) -> &[MethodId] {
        &self.methods
    }

    /// Returns the instance type of this class.
    pub fn ty(&self) -> TypeId {
        self.ty
    }
}

/// A field declaration.
#[derive(Clone, Debug)]
pub struct Field {
    pub(crate) name: String,
    /// `None` only for the array-element pseudo-field.
    pub(crate) class: Option<ClassId>,
    pub(crate) ty: TypeId,
    pub(crate) is_static: bool,
}

impl Field {
    /// Returns the field name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the declaring class, or `None` for the array-element
    /// pseudo-field.
    pub fn class(&self) -> Option<ClassId> {
        self.class
    }

    /// Returns the declared type of the field.
    pub fn ty(&self) -> TypeId {
        self.ty
    }

    /// Returns `true` for static fields.
    pub fn is_static(&self) -> bool {
        self.is_static
    }
}

/// A method declaration with its body.
#[derive(Clone, Debug)]
pub struct Method {
    pub(crate) class: ClassId,
    pub(crate) name: String,
    pub(crate) this: Option<VarId>,
    pub(crate) params: Vec<VarId>,
    pub(crate) is_static: bool,
    pub(crate) is_abstract: bool,
    pub(crate) body: Vec<Stmt>,
}

impl Method {
    /// Returns the declaring class.
    pub fn class(&self) -> ClassId {
        self.class
    }

    /// Returns the method name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the `this` variable, or `None` for static methods.
    pub fn this(&self) -> Option<VarId> {
        self.this
    }

    /// Returns the declared parameters, excluding `this`.
    pub fn params(&self) -> &[VarId] {
        &self.params
    }

    /// Returns the number of declared parameters, excluding `this`.
    pub fn arity(&self) -> usize {
        self.params.len()
    }

    /// Returns `true` for static methods.
    pub fn is_static(&self) -> bool {
        self.is_static
    }

    /// Returns `true` for abstract methods (no body).
    pub fn is_abstract(&self) -> bool {
        self.is_abstract
    }

    /// Returns the statements of the body.
    pub fn body(&self) -> &[Stmt] {
        &self.body
    }
}

/// A local variable or parameter.
#[derive(Clone, Debug)]
pub struct Var {
    pub(crate) name: String,
    pub(crate) method: MethodId,
}

impl Var {
    /// Returns the variable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the method this variable belongs to.
    pub fn method(&self) -> MethodId {
        self.method
    }
}

/// An allocation site: `x = new T()` at a specific program point.
#[derive(Clone, Copy, Debug)]
pub struct AllocSite {
    pub(crate) ty: TypeId,
    pub(crate) method: MethodId,
}

impl AllocSite {
    /// Returns the allocated type.
    pub fn ty(&self) -> TypeId {
        self.ty
    }

    /// Returns the method containing the allocation.
    pub fn method(&self) -> MethodId {
        self.method
    }
}

/// How a call site names its callee.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum CallTarget {
    /// Resolved dynamically from the receiver's runtime class by
    /// `(name, arity)` signature.
    Signature {
        /// The method name.
        name: String,
        /// The parameter count (excluding the receiver).
        arity: usize,
    },
    /// Statically bound to an exact method (static and special calls).
    Exact(MethodId),
}

/// A call site with its arguments and optional result variable.
#[derive(Clone, Debug)]
pub struct CallSite {
    pub(crate) kind: CallKind,
    pub(crate) target: CallTarget,
    pub(crate) args: Vec<VarId>,
    pub(crate) result: Option<VarId>,
    pub(crate) method: MethodId,
}

impl CallSite {
    /// Returns the dispatch kind.
    pub fn kind(&self) -> &CallKind {
        &self.kind
    }

    /// Returns how the callee is named.
    pub fn target(&self) -> &CallTarget {
        &self.target
    }

    /// Returns the argument variables (excluding the receiver).
    pub fn args(&self) -> &[VarId] {
        &self.args
    }

    /// Returns the variable receiving the call result, if any.
    pub fn result(&self) -> Option<VarId> {
        self.result
    }

    /// Returns the method containing this call site.
    pub fn method(&self) -> MethodId {
        self.method
    }
}

/// A cast site: `x = (T) y` at a specific program point.
#[derive(Clone, Copy, Debug)]
pub struct CastSite {
    pub(crate) target_ty: TypeId,
    pub(crate) method: MethodId,
}

impl CastSite {
    /// Returns the type being cast to.
    pub fn target_ty(&self) -> TypeId {
        self.target_ty
    }

    /// Returns the method containing this cast.
    pub fn method(&self) -> MethodId {
        self.method
    }
}

/// An immutable whole program, produced by [`ProgramBuilder::finish`] or
/// [`parse`].
///
/// All entities live in arenas indexed by typed ids ([`ClassId`], [`MethodId`], ...);
/// hierarchy queries (subtyping, dispatch) are precomputed when the program
/// is finished and answered in constant or near-constant time.
///
/// [`ProgramBuilder::finish`]: crate::ProgramBuilder::finish
/// [`parse`]: crate::parse
#[derive(Clone, Debug)]
pub struct Program {
    pub(crate) classes: Vec<Class>,
    pub(crate) types: Vec<TypeKind>,
    pub(crate) fields: Vec<Field>,
    pub(crate) methods: Vec<Method>,
    pub(crate) vars: Vec<Var>,
    pub(crate) allocs: Vec<AllocSite>,
    pub(crate) call_sites: Vec<CallSite>,
    pub(crate) casts: Vec<CastSite>,
    pub(crate) entry: MethodId,
    pub(crate) object_class: ClassId,
    pub(crate) array_elem_field: FieldId,
    pub(crate) class_by_name: HashMap<String, ClassId>,
    /// `ancestors[c]` = all classes/interfaces `c` is a subtype of,
    /// including `c` itself, as a bitset over `ClassId`.
    pub(crate) ancestors: Vec<ClassBitSet>,
    /// `vtables[c]` holds the concrete method a virtual call on an
    /// instance of `c` dispatches to, one per signature, sorted by
    /// [`Program::signature`] so a borrowed `(name, arity)` finds its
    /// entry by bisection without allocating.
    pub(crate) vtables: Vec<Vec<MethodId>>,
}

/// A fixed-size bitset over [`ClassId`]s, used for ancestor sets.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct ClassBitSet {
    words: Vec<u64>,
}

impl ClassBitSet {
    pub(crate) fn with_capacity(n: usize) -> Self {
        ClassBitSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    pub(crate) fn insert(&mut self, c: ClassId) {
        let i = c.index();
        self.words[i / 64] |= 1 << (i % 64);
    }

    pub(crate) fn contains(&self, c: ClassId) -> bool {
        let i = c.index();
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    pub(crate) fn union_with(&mut self, other: &ClassBitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }
}

impl Program {
    // --- Entity accessors -------------------------------------------------

    /// Returns the class with the given id.
    pub fn class(&self, id: ClassId) -> &Class {
        &self.classes[id.index()]
    }

    /// Returns the type table entry with the given id.
    pub fn ty(&self, id: TypeId) -> TypeKind {
        self.types[id.index()]
    }

    /// Returns the field with the given id.
    pub fn field(&self, id: FieldId) -> &Field {
        &self.fields[id.index()]
    }

    /// Returns the method with the given id.
    pub fn method(&self, id: MethodId) -> &Method {
        &self.methods[id.index()]
    }

    /// Returns the variable with the given id.
    pub fn var(&self, id: VarId) -> &Var {
        &self.vars[id.index()]
    }

    /// Returns the allocation site with the given id.
    pub fn alloc(&self, id: AllocId) -> &AllocSite {
        &self.allocs[id.index()]
    }

    /// Returns the call site with the given id.
    pub fn call_site(&self, id: CallSiteId) -> &CallSite {
        &self.call_sites[id.index()]
    }

    /// Returns the cast site with the given id.
    pub fn cast(&self, id: CastId) -> &CastSite {
        &self.casts[id.index()]
    }

    /// Returns the program entry point (the `main` method).
    pub fn entry(&self) -> MethodId {
        self.entry
    }

    /// Returns the root class (`java.lang.Object` analogue).
    pub fn object_class(&self) -> ClassId {
        self.object_class
    }

    /// Returns the pseudo-field used to model array element reads/writes.
    pub fn array_elem_field(&self) -> FieldId {
        self.array_elem_field
    }

    // --- Counts and iteration --------------------------------------------

    /// Returns the number of classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Returns the number of types in the type table.
    pub fn type_count(&self) -> usize {
        self.types.len()
    }

    /// Returns the number of fields (including the array pseudo-field).
    pub fn field_count(&self) -> usize {
        self.fields.len()
    }

    /// Returns the number of methods.
    pub fn method_count(&self) -> usize {
        self.methods.len()
    }

    /// Returns the number of variables.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// Returns the number of allocation sites.
    pub fn alloc_count(&self) -> usize {
        self.allocs.len()
    }

    /// Returns the number of call sites.
    pub fn call_site_count(&self) -> usize {
        self.call_sites.len()
    }

    /// Returns the number of cast sites.
    pub fn cast_count(&self) -> usize {
        self.casts.len()
    }

    /// Iterates over all class ids.
    pub fn class_ids(&self) -> impl Iterator<Item = ClassId> + '_ {
        (0..self.classes.len()).map(ClassId::from_usize)
    }

    /// Iterates over all method ids.
    pub fn method_ids(&self) -> impl Iterator<Item = MethodId> + '_ {
        (0..self.methods.len()).map(MethodId::from_usize)
    }

    /// Iterates over all allocation site ids.
    pub fn alloc_ids(&self) -> impl Iterator<Item = AllocId> + '_ {
        (0..self.allocs.len()).map(AllocId::from_usize)
    }

    /// Iterates over all call site ids.
    pub fn call_site_ids(&self) -> impl Iterator<Item = CallSiteId> + '_ {
        (0..self.call_sites.len()).map(CallSiteId::from_usize)
    }

    /// Iterates over all cast site ids.
    pub fn cast_ids(&self) -> impl Iterator<Item = CastId> + '_ {
        (0..self.casts.len()).map(CastId::from_usize)
    }

    /// Iterates over all field ids.
    pub fn field_ids(&self) -> impl Iterator<Item = FieldId> + '_ {
        (0..self.fields.len()).map(FieldId::from_usize)
    }

    // --- Lookups -----------------------------------------------------------

    /// Looks up a class by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.class_by_name.get(name).copied()
    }

    /// Looks up a field declared by (or inherited into) `class` with the
    /// given name, walking up the superclass chain.
    pub fn field_by_name(&self, class: ClassId, name: &str) -> Option<FieldId> {
        let mut cur = Some(class);
        while let Some(c) = cur {
            let cls = self.class(c);
            for &f in &cls.fields {
                if self.field(f).name == name {
                    return Some(f);
                }
            }
            cur = cls.superclass;
        }
        None
    }

    /// Looks up a method declared directly by `class` with the given name
    /// and arity.
    pub fn method_by_name(&self, class: ClassId, name: &str, arity: usize) -> Option<MethodId> {
        self.class(class)
            .methods
            .iter()
            .copied()
            .find(|&m| self.method(m).name == name && self.method(m).arity() == arity)
    }

    // --- Hierarchy queries --------------------------------------------------

    /// Returns `true` if `sub` is `sup` or a transitive
    /// subclass/implementor of `sup`.
    pub fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        self.ancestors[sub.index()].contains(sup)
    }

    /// Returns `true` if type `sub` is assignable to type `sup`.
    ///
    /// Class types use the class hierarchy; array types are covariant in
    /// their element type (as in Java); every array type is assignable to
    /// the root class type.
    pub fn is_subtype(&self, sub: TypeId, sup: TypeId) -> bool {
        if sub == sup {
            return true;
        }
        match (self.ty(sub), self.ty(sup)) {
            (TypeKind::Class(a), TypeKind::Class(b)) => self.is_subclass(a, b),
            (TypeKind::Array { .. }, TypeKind::Class(b)) => b == self.object_class,
            (TypeKind::Array { elem: a }, TypeKind::Array { elem: b }) => self.is_subtype(a, b),
            (TypeKind::Class(_), TypeKind::Array { .. }) => false,
        }
    }

    /// Resolves a virtual call on a receiver of runtime type `recv_ty` to
    /// the concrete method with signature `(name, arity)`.
    ///
    /// Array receivers dispatch through the root class. Returns `None` if
    /// no concrete implementation exists (a malformed program or an
    /// abstract receiver class).
    pub fn dispatch(&self, recv_ty: TypeId, name: &str, arity: usize) -> Option<MethodId> {
        let class = match self.ty(recv_ty) {
            TypeKind::Class(c) => c,
            TypeKind::Array { .. } => self.object_class,
        };
        let table = &self.vtables[class.index()];
        table
            .binary_search_by(|&m| self.signature(m).cmp(&(name, arity)))
            .ok()
            .map(|at| table[at])
    }

    /// The `(name, arity)` virtual calls dispatch `method` by.
    pub(crate) fn signature(&self, method: MethodId) -> (&str, usize) {
        let m = &self.methods[method.index()];
        (m.name.as_str(), m.params.len())
    }

    /// Returns the class that lexically contains the given allocation site
    /// (the "containing type" used by type-sensitivity, Smaragdakis et al.).
    pub fn alloc_containing_class(&self, alloc: AllocId) -> ClassId {
        self.method(self.alloc(alloc).method).class
    }

    /// Returns a human-readable name for a type (`"A"`, `"A[]"`, ...).
    pub fn type_name(&self, ty: TypeId) -> String {
        match self.ty(ty) {
            TypeKind::Class(c) => self.class(c).name.clone(),
            TypeKind::Array { elem } => format!("{}[]", self.type_name(elem)),
        }
    }

    /// Returns all reference-typed instance fields of objects of type `ty`:
    /// the declared+inherited fields for class types, the element
    /// pseudo-field for array types.
    pub fn instance_fields_of_type(&self, ty: TypeId) -> Vec<FieldId> {
        match self.ty(ty) {
            TypeKind::Array { .. } => vec![self.array_elem_field],
            TypeKind::Class(c) => {
                let mut out = Vec::new();
                let mut cur = Some(c);
                while let Some(cl) = cur {
                    for &f in &self.class(cl).fields {
                        if !self.field(f).is_static {
                            out.push(f);
                        }
                    }
                    cur = self.class(cl).superclass;
                }
                out
            }
        }
    }

    /// Returns a stable, human-readable label for an allocation site, e.g.
    /// `"alloc#3:B@A.foo"`.
    pub fn alloc_label(&self, alloc: AllocId) -> String {
        let site = self.alloc(alloc);
        let m = self.method(site.method);
        format!(
            "{alloc}:{}@{}.{}",
            self.type_name(site.ty),
            self.class(m.class).name,
            m.name
        )
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::printer::write_program(self, f)
    }
}
