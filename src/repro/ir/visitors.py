"""IR traversal and rewriting infrastructure.

Two small primitives cover every pass in the optimizer:

* :func:`walk` -- pre-order generator over all nodes;
* :func:`transform` -- post-order rebuild with a node-mapping function
  (children are rebuilt first, then the mapper sees the updated node).

Both treat the IR as immutable-ish: passes return new trees and never
mutate nodes in place, so candidates can share subtrees safely.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Type, TypeVar

from .nodes import Node

N = TypeVar("N", bound=Node)


def walk(node: Node) -> Iterator[Node]:
    """Yield ``node`` and all descendants, pre-order."""
    yield node
    for child in node.children():
        yield from walk(child)


def find_all(node: Node, kind: Type[N]) -> List[N]:
    """All descendants (including the root) of the given node class."""
    return [n for n in walk(node) if isinstance(n, kind)]


def transform(node: Node, fn: Callable[[Node], Optional[Node]]) -> Node:
    """Post-order rewrite.

    ``fn`` receives each node (with already-rewritten children) and
    returns a replacement, or ``None`` to keep the node.  Returning a
    different node replaces the whole subtree.
    """
    children = node.children()
    if children:
        new_children = [transform(c, fn) for c in children]
        if any(nc is not oc for nc, oc in zip(new_children, children)):
            node = node.with_children(new_children)
    replacement = fn(node)
    return node if replacement is None else replacement


def count_nodes(node: Node, kind: Optional[Type[Node]] = None) -> int:
    if kind is None:
        return sum(1 for _ in walk(node))
    return sum(1 for n in walk(node) if isinstance(n, kind))

