"""Entity beans with container-managed persistence.

Each entity class corresponds to a database table, an instance to a row,
and a field to a column -- exactly the paper's description.  The SQL is
generated by this layer, never written by the application:

* ``Home.create(...)``            -> ``INSERT INTO t (...) VALUES (...)``
* ``Home.find_by_primary_key(k)`` -> ``SELECT pk FROM t WHERE pk = ?``
* ``Home.find_by(col, v, ...)``   -> ``SELECT pk FROM t WHERE col = ? ...``
* ``bean.remove()``               -> ``DELETE FROM t WHERE pk = ?``

Loading and storing granularity is the container's ``load_mode`` /
``store_mode``:

* ``field`` (the default, matching the JOnAS 2.5 behaviour the paper
  measured): the first access to *each* field issues
  ``SELECT col FROM t WHERE pk = ?``, and commit issues one
  ``UPDATE t SET col = ? WHERE pk = ?`` per dirty field.  The paper
  attributes the EJB configurations' flood of small packets to exactly
  this: "accesses to fields in the beans that require a single value to
  be read or updated in the database".
* ``row``: the first field access loads the whole row (ejbLoad); commit
  writes all dirty fields in one UPDATE (an ablation mode).

Finders return collections of *unloaded* beans; touching each bean
queries for it.  This N+1 pattern plus field granularity is what caps
the paper's EJB configurations.
"""

from __future__ import annotations

import weakref
from typing import List, Optional, Sequence

from repro.db.errors import SqlError

# The dirty set of every clean bean: a read never writes, so a bean gets
# a set of its own only on its first field write.
_CLEAN: frozenset = frozenset()


class EntityBean:
    """One row, container-managed.  Field access goes through
    __getattr__/__setattr__ so loads and dirty tracking are implicit.

    A field is loaded exactly when ``_values`` holds it.  ``__getattr__``
    runs only when ordinary lookup misses, so the control fields below
    are read as plain attributes.  They are slots: one bean per row
    touched, and a finder walk touches thousands.
    """

    __slots__ = ("_home", "_pk", "_values", "_dirty", "_removed")
    _CONTROL = frozenset(__slots__)

    def __init__(self, home: "EntityHome", pk, values: Optional[dict] = None):
        # Straight into the slots: __setattr__ is for fields.
        put = object.__setattr__
        put(self, "_home", home)
        put(self, "_pk", pk)
        put(self, "_values", dict(values) if values else {})
        put(self, "_dirty", _CLEAN)
        put(self, "_removed", False)

    # -- field access -------------------------------------------------------------

    def __getattr__(self, name: str):
        if name in EntityBean._CONTROL:
            # A bean that never ran __init__ (copy, unpickle).
            raise AttributeError(name)
        home: EntityHome = self._home
        if name not in home._load_sql:
            raise AttributeError(
                f"entity {home.table_name!r} has no field {name!r}")
        if self._removed:
            raise RuntimeError("accessing a removed entity bean")
        values = self._values
        if name not in values:
            home._ejb_load(self, name)
        home.container.field_accesses += 1
        return values[name]

    def __setattr__(self, name: str, value) -> None:
        if name in EntityBean._CONTROL:
            object.__setattr__(self, name, value)
            return
        home: EntityHome = self._home
        if name not in home._load_sql:
            raise AttributeError(
                f"entity {home.table_name!r} has no field {name!r}")
        if self._removed:
            raise RuntimeError("mutating a removed entity bean")
        if name == home.pk_name:
            raise SqlError("primary key of an entity bean is immutable")
        home.container.field_accesses += 1
        self._values[name] = value
        if self._dirty is _CLEAN:
            object.__setattr__(self, "_dirty", set())
        self._dirty.add(name)
        home.container.register_dirty(self)

    # -- lifecycle ------------------------------------------------------------------

    @property
    def primary_key(self):
        return self._pk

    def remove(self) -> None:
        """ejbRemove: delete the underlying row."""
        self._home._ejb_remove(self)

    def snapshot(self) -> dict:
        """All field values (loading whatever is missing)."""
        if self._removed:
            raise RuntimeError("accessing a removed entity bean")
        home: EntityHome = self._home
        for name in home.field_names:
            if name not in self._values:
                home._ejb_load(self, name)
        return dict(self._values)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<EntityBean {self._home.table_name}:{self._pk}>"


class EntityHome:
    """The home interface of one entity type (one table).

    The per-key CMP statement texts (load, store, remove, the pk
    finder) are built once, at deployment, and the same string object is
    handed to the driver each time; a finder's text is generated per call.

    A home reaches its container through a weak proxy: the container
    owns its homes, and a deployment must not be a reference cycle, so
    that dropping it frees its database at once.
    """

    def __init__(self, container, table_name: str):
        self.container = weakref.proxy(container)
        self.table_name = table_name
        table = container.database.table(table_name)
        schema = table.schema
        if schema.primary_key is None:
            raise SqlError(
                f"entity over {table_name!r} needs a primary-key column")
        self.pk_name = pk = schema.primary_key
        self.field_names = tuple(schema.column_names())
        by_pk = f"WHERE {pk} = ?"
        self._find_pk_sql = f"SELECT {pk} FROM {table_name} {by_pk}"
        self._load_row_sql = f"SELECT * FROM {table_name} {by_pk}"
        self._remove_sql = f"DELETE FROM {table_name} {by_pk}"
        self._load_sql = {f: f"SELECT {f} FROM {table_name} {by_pk}"
                          for f in self.field_names}
        self._store_sql = {f: f"UPDATE {table_name} SET {f} = ? {by_pk}"
                           for f in self.field_names}

    # -- finders (generate pk-only SELECTs) -------------------------------------------

    def find_by_primary_key(self, pk) -> EntityBean:
        result = self.container.execute(self._find_pk_sql, (pk,))
        if not result.rows:
            raise KeyError(f"{self.table_name}[{pk!r}] does not exist")
        return self.container.materialize(self, pk)

    def _find(self, where: Optional[str], params: Sequence,
              order_by: Optional[str] = None, descending: bool = False,
              limit: Optional[int] = None) -> List[EntityBean]:
        """Generate and run the pk-only SELECT of one finder."""
        sql = f"SELECT {self.pk_name} FROM {self.table_name}"
        if where is not None:
            sql += f" WHERE {where}"
        if order_by:
            sql += f" ORDER BY {order_by}" + (" DESC" if descending else "")
        if limit is not None:
            sql += f" LIMIT {int(limit)}"
        materialize = self.container.materialize
        return [materialize(self, row[0])
                for row in self.container.execute(sql, params).rows]

    def find_by(self, column: str, value, order_by: Optional[str] = None,
                descending: bool = False,
                limit: Optional[int] = None) -> List[EntityBean]:
        return self._find(f"{column} = ?", (value,), order_by, descending,
                          limit)

    def find_where(self, condition: str, params: Sequence = (),
                   order_by: Optional[str] = None, descending: bool = False,
                   limit: Optional[int] = None) -> List[EntityBean]:
        """A declared finder with a WHERE fragment (EJB-QL stand-in)."""
        return self._find(condition, params, order_by, descending, limit)

    def find_all(self, limit: Optional[int] = None) -> List[EntityBean]:
        return self._find(None, (), limit=limit)

    def max_primary_key(self):
        """SELECT MAX(pk) -- used by window finders."""
        return self.container.execute(
            f"SELECT MAX({self.pk_name}) FROM {self.table_name}",
            ()).scalar()

    # -- creation ---------------------------------------------------------------------

    def create(self, **fields) -> EntityBean:
        """ejbCreate: INSERT immediately, return a fully-loaded bean."""
        unknown = set(fields) - set(self.field_names)
        if unknown:
            raise SqlError(
                f"entity {self.table_name!r}: unknown fields {sorted(unknown)}")
        columns = list(fields)
        placeholders = ", ".join("?" for __ in columns)
        result = self.container.execute(
            f"INSERT INTO {self.table_name} ({', '.join(columns)}) "
            f"VALUES ({placeholders})",
            tuple(fields[c] for c in columns))
        pk = fields.get(self.pk_name)
        if pk is None:
            pk = result.last_insert_id
        values = dict(fields)
        values[self.pk_name] = pk
        for name in self.field_names:
            values.setdefault(name, None)
        return self.container.materialize(self, pk, values=values)

    # -- container callbacks ------------------------------------------------------------

    def _ejb_load(self, bean: EntityBean, field: str) -> None:
        """Load state for one field access.

        In ``field`` mode only the requested column is fetched; in
        ``row`` mode the whole row is (classic ejbLoad).
        """
        container = self.container
        pk = bean._pk
        by_field = container.load_mode == "field"
        result = container.execute(
            self._load_sql[field] if by_field else self._load_row_sql, (pk,))
        if not result.rows:
            raise KeyError(f"{self.table_name}[{pk!r}] vanished")
        values = bean._values
        if by_field:
            values[field] = result.rows[0][0]
        else:
            # Dirty fields keep their in-memory (newer) values.
            dirty = bean._dirty
            for name, value in zip(result.columns, result.rows[0]):
                if name not in dirty:
                    values[name] = value
        container.entity_loads += 1

    def _ejb_store(self, bean: EntityBean) -> None:
        """Write dirty fields back; granularity set by the container."""
        dirty = sorted(bean._dirty)
        if not dirty or bean._removed:
            return
        values, pk = bean._values, bean._pk
        if self.container.store_mode == "field":
            for field in dirty:
                self.container.execute(self._store_sql[field],
                                       (values[field], pk))
        else:  # row mode: one UPDATE for all dirty fields
            assignments = ", ".join(f"{f} = ?" for f in dirty)
            params = tuple(values[f] for f in dirty) + (pk,)
            self.container.execute(
                f"UPDATE {self.table_name} SET {assignments} "
                f"WHERE {self.pk_name} = ?", params)
        bean._dirty = _CLEAN

    def _ejb_remove(self, bean: EntityBean) -> None:
        self.container.execute(self._remove_sql, (bean._pk,))
        bean._removed = True
        bean._dirty = _CLEAN
        self.container.forget(self, bean._pk)
