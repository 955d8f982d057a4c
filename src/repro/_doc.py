"""Docstring helper shared by the plugin registries.

A leaf module: it imports nothing from :mod:`repro`, so the ``systems``,
``data`` and ``federated`` registries can all use it without an import
cycle.
"""


def first_doc_line(obj) -> str:
    """First line of ``obj``'s docstring, or ``""`` when it has none."""
    doc = (obj.__doc__ or "").strip()
    return doc.splitlines()[0].strip() if doc else ""
