package repro.core

import org.scalatest.funsuite.AnyFunSuite
import Attrs.ResolveError

class AttrsSpec extends AnyFunSuite {

  // ---- process attributes, role-sensitive

  test("proc default attribute is the executable name") {
    assert(Attrs.entityAttr("proc", "subj", "") == "subj_exe")
    assert(Attrs.entityAttr("proc", "obj", "") == "obj_exe")
  }

  test("proc exe_name variants") {
    for (a <- Seq("exe_name", "exe", "name")) {
      assert(Attrs.entityAttr("proc", "subj", a) == "subj_exe")
      assert(Attrs.entityAttr("proc", "obj", a) == "obj_exe")
    }
  }

  test("proc pid maps by role") {
    assert(Attrs.entityAttr("proc", "subj", "pid") == "subj_pid")
    assert(Attrs.entityAttr("proc", "obj", "pid") == "obj_pid")
  }

  test("unknown proc attribute throws") {
    assertThrows[ResolveError](Attrs.entityAttr("proc", "subj", "color"))
  }

  // ---- file attributes

  test("file default attribute is the path") {
    assert(Attrs.entityAttr("file", "obj", "") == "obj_path")
  }

  test("file name and path are synonyms") {
    assert(Attrs.entityAttr("file", "obj", "name") == "obj_path")
    assert(Attrs.entityAttr("file", "obj", "path") == "obj_path")
  }

  test("file as subject is rejected (SVO model)") {
    assertThrows[ResolveError](Attrs.entityAttr("file", "subj", "name"))
  }

  // ---- ip attributes

  test("ip default attribute is dst_ip (the paper's i1 -> i1.dst_ip shortcut)") {
    assert(Attrs.entityAttr("ip", "obj", "") == "dst_ip")
  }

  test("ip attribute variants") {
    assert(Attrs.entityAttr("ip", "obj", "dstip") == "dst_ip")
    assert(Attrs.entityAttr("ip", "obj", "srcip") == "src_ip")
    assert(Attrs.entityAttr("ip", "obj", "dst_port") == "dst_port")
    assert(Attrs.entityAttr("ip", "obj", "port") == "dst_port")
    assert(Attrs.entityAttr("ip", "obj", "src_port") == "src_port")
  }

  test("ip as subject is rejected") {
    assertThrows[ResolveError](Attrs.entityAttr("ip", "subj", ""))
  }

  // ---- event attributes

  test("event attributes map to schema columns") {
    assert(Attrs.eventAttr("ts") == "ts")
    assert(Attrs.eventAttr("time") == "ts")
    assert(Attrs.eventAttr("amount") == "amount")
    assert(Attrs.eventAttr("op") == "op")
    assert(Attrs.eventAttr("operation") == "op")
    assert(Attrs.eventAttr("agentid") == "agent_id")
  }

  test("unknown event attribute throws") {
    assertThrows[ResolveError](Attrs.eventAttr("severity"))
  }

  // ---- join identity

  test("join keys by kind and role") {
    assert(Attrs.joinKey("proc", "subj") == "subj_pid")
    assert(Attrs.joinKey("proc", "obj") == "obj_pid")
    assert(Attrs.joinKey("file", "obj") == "obj_path")
    assert(Attrs.joinKey("ip", "obj") == "dst_ip")
  }

  test("processes and files are host-local, connections are not") {
    assert(Attrs.isHostLocal("proc"))
    assert(Attrs.isHostLocal("file"))
    assert(!Attrs.isHostLocal("ip"))
  }

  test("unknown kind throws") {
    assertThrows[ResolveError](Attrs.entityAttr("registry", "obj", ""))
    assertThrows[ResolveError](Attrs.joinKey("registry", "obj"))
  }
}

class TimesSpec extends AnyFunSuite {
  import Ast._

  test("date parses at midnight UTC") {
    assert(Times.parseMs("08/01/2023") == 1690848000000L)
  }

  test("datetime parses") {
    assert(Times.parseMs("08/01/2023 09:00:00") == 1690848000000L + 9 * 3600 * 1000)
  }

  test("at-clause spans one day") {
    val Some((s, t)) = Times.window(Seq(TimeAt("08/01/2023")))
    assert(t - s == 86400000L)
  }

  test("from-to window") {
    val Some((s, t)) = Times.window(Seq(TimeFromTo("08/01/2023 09:00:00", "08/01/2023 10:00:00")))
    assert(t - s == 3600000L)
  }

  test("multiple time globals intersect") {
    val Some((s, t)) = Times.window(Seq(
      TimeAt("08/01/2023"), TimeFromTo("08/01/2023 09:00:00", "08/02/2023 09:00:00")))
    assert(s == Times.parseMs("08/01/2023 09:00:00"))
    assert(t == Times.parseMs("08/02/2023"))
  }

  test("no time global yields None") {
    assert(Times.window(Seq(AgentIn(Seq(1)))).isEmpty)
  }

  test("daysOf covers the window") {
    val s = Times.parseMs("08/01/2023")
    assert(Times.daysOf(s, s + 86400000L) == Seq("2023-08-01"))
    assert(Times.daysOf(s, s + 86400000L + 1) == Seq("2023-08-01", "2023-08-02"))
    assert(Times.daysOf(s + 1000, s + 86400000L) == Seq("2023-08-01"))
  }

  test("daysOf multi-day range") {
    val s = Times.parseMs("08/01/2023")
    assert(Times.daysOf(s, s + 3 * 86400000L) ==
      Seq("2023-08-01", "2023-08-02", "2023-08-03"))
  }

  test("agents collects and dedups") {
    assert(Times.agents(Seq(AgentIn(Seq(1, 2)), AgentIn(Seq(2, 3)))) == Some(Seq(1, 2, 3)))
    assert(Times.agents(Seq(TimeAt("08/01/2023"))).isEmpty)
  }
}

class DependencyCompilerSpec extends AnyFunSuite {
  import Ast._

  private def dep(dir: String, src: String): DependencyQuery =
    Parser.parse(s"$dir\n$src\nreturn p1").asInstanceOf[DependencyQuery]

  test("forward compiles to before-chain") {
    val q = dep("forward",
      """proc p1 read file f as evt1
        |proc p1 connect ip i as evt2
        |proc p2 connect ip i as evt3""".stripMargin)
    val m = DependencyCompiler.compile(q)
    assert(m.temps == Seq(TempRel("evt1", "before", "evt2"), TempRel("evt2", "before", "evt3")))
  }

  test("backward compiles to after-chain") {
    val q = dep("backward",
      """proc p2 read file f as evt2
        |proc p1 start proc p2 as evt1""".stripMargin)
    val m = DependencyCompiler.compile(q)
    assert(m.temps == Seq(TempRel("evt2", "after", "evt1")))
  }

  test("globals and returns are preserved") {
    val q = Parser.parse(
      """(at "08/01/2023")
        |forward
        |proc p1 read file f as evt1
        |proc p1 connect ip i as evt2
        |return p1, i""".stripMargin).asInstanceOf[DependencyQuery]
    val m = DependencyCompiler.compile(q)
    assert(m.globals == Seq(TimeAt("08/01/2023")))
    assert(m.returns.size == 2)
  }

  test("single-event path has no temporal relations") {
    val q = dep("forward", "proc p1 read file f as evt1")
    assert(DependencyCompiler.compile(q).temps.isEmpty)
  }

  test("unchained consecutive events are rejected") {
    val q = dep("forward",
      """proc p1 read file f as evt1
        |proc p2 read file g as evt2""".stripMargin)
    assertThrows[DependencyCompiler.DependencyError](DependencyCompiler.compile(q))
  }

  test("compiled query has no group by or having") {
    val q = dep("forward",
      """proc p1 read file f as evt1
        |proc p1 connect ip i as evt2""".stripMargin)
    val m = DependencyCompiler.compile(q)
    assert(m.groupBy.isEmpty && m.having.isEmpty)
  }
}
