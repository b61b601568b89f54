"""SQLite oracle: recount every query a run sent, outside the timed region.

The oracle shares nothing with the engine but the SQL text.  It loads a
copy of the catalog as it was before the run (every table with an
explicit ``rid`` row-id column and a covering index per column), then replays
the run's log in order: a write overwrites the same rows in SQLite, a
query is answered by ``SELECT COUNT(*)`` over the same FROM/WHERE.
Counts are memoized per (data version, SQL, parameters), so a repeated
query between two writes is counted once.
"""

from __future__ import annotations

import sqlite3

__all__ = ["check", "count_sql", "snapshot"]


def snapshot(catalog):
    """``{table: {column: array copy}}`` of every table in ``catalog``."""
    return {
        name: {column: catalog.table(name).column(column).copy()
               for column in catalog.table(name).column_names}
        for name in catalog.table_names
    }


def _load(tables):
    connection = sqlite3.connect(":memory:")
    for name, columns in tables.items():
        names = list(columns)
        connection.execute(
            f"create table {name} (rid integer primary key, "
            f"{', '.join(names)})"
        )
        rows = zip(range(len(columns[names[0]])),
                   *(columns[column].tolist() for column in names))
        connection.executemany(
            f"insert into {name} values ({', '.join('?' * (len(names) + 1))})",
            rows,
        )
        for column in names:
            # covering: a join probe on `column` never visits the table
            covered = [column] + [other for other in names if other != column]
            connection.execute(
                f"create index {name}_{column} on {name}"
                f"({', '.join(covered)})"
            )
    connection.execute("analyze")
    return connection


def count_sql(sql):
    """The engine's ``select * ...`` text as a SQLite row count."""
    head = "select *"
    if not sql.lower().startswith(head):
        raise ValueError(f"expected a 'select *' query, got {sql[:40]!r}")
    return "select count(*)" + sql[len(head):]


def check(tables, events):
    """Replay ``events`` against ``tables``; return the query verdicts.

    Returns ``(checked, mismatches)``: how many successful engine
    queries were recounted, and a list of ``(sql, params, engine,
    sqlite)`` for each that disagreed.
    """
    connection = _load(tables)
    try:
        version = 0
        memo = {}
        checked = 0
        mismatches = []
        for event in events:
            if event[0] == "write":
                _, table, column, start, values = event
                connection.executemany(
                    f"update {table} set {column} = ? where rid = ?",
                    zip(values.tolist(),
                        range(start, start + len(values))),
                )
                version += 1
                continue
            _, sql, params, engine = event
            if engine is None:
                continue  # failed in the engine: already an error
            key = (version, sql, params)
            if key not in memo:
                memo[key] = connection.execute(count_sql(sql),
                                               params).fetchone()[0]
            checked += 1
            if memo[key] != engine:
                mismatches.append((sql, params, engine, memo[key]))
        return checked, mismatches
    finally:
        connection.close()
