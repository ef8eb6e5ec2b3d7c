package repro.perfbench

/** Minimal JSON rendering for the benchmark's result line and records. */
object Json {
  def render(v: Any): String = v match {
    case null | None      => "null"
    case Some(x)          => render(x)
    case b: Boolean       => b.toString
    case d: Double        => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int           => n.toString
    case n: Long          => n.toString
    case s: String        => quote(s)
    case m: collection.Map[_, _] =>
      m.map { case (k, x) => s"${quote(k.toString)}: ${render(x)}" }.mkString("{", ", ", "}")
    case xs: Iterable[_]  => xs.map(render).mkString("[", ", ", "]")
    case other            => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case '\t' => b ++= "\\t"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    b += '"'
    b.toString
  }
}
